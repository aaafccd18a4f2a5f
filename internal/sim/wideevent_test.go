package sim_test

// Wide-kernel equivalence in the "wide-event" delay class: the 64-lane
// kernel must be bit-identical to 64 independent scalar runs under EVERY
// delay model — the non-uniform ones (full-adder ratios, per-type,
// randomized per-pin with zero delays) and zero delay included — in
// transport and in inertial mode, where its inertial windows and
// zero-delay batches reproduce the scalar kernel's cancellations.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/internal/testutil"
	"glitchsim/netlist"
)

// nonUniformModels returns the delay-model families of the paper's
// realistic-delay experiments, the ablations' zero-delay sums, and a
// deterministic pseudo-random per-pin model with zero delays.
func nonUniformModels() []delay.Model {
	return []delay.Model{
		delay.FullAdderRatio(2, 1),
		delay.FullAdderRatio(3, 1),
		delay.FullAdderRatio(0, 5),
		delay.Typical(),
		delay.PerType(map[netlist.CellType]int{
			netlist.Xor: 4, netlist.Xnor: 4, netlist.FA: 5, netlist.HA: 3, netlist.Not: 1,
		}, 2),
		randomDelay(1234, 6),
		delay.Zero(),
	}
}

// randomDelay returns a deterministic pseudo-random per-cell/per-pin
// model with delays in [0, spread]: the adversarial case where every pin
// differs and zero-delay coalescing interleaves with nonzero delays.
func randomDelay(seed uint64, spread int) delay.Model {
	return delay.Func{
		F: func(c *netlist.Cell, pin int) int {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s|%d", seed, c.Name, pin)
			return int(h.Sum64() % uint64(spread+1))
		},
		N: fmt.Sprintf("random(%d,%d)", seed, spread),
	}
}

// compareWideKernels checks NewWideKernel against one merged scalar
// reference.
func compareWideKernels(t *testing.T, name string, c *sim.Compiled, opts sim.Options, seeds []uint64, cycles int) {
	t.Helper()
	ref, refVals := mergedScalarRuns(t, c, opts, seeds, cycles)
	wide, wideVals := wideRun(t, c, opts, seeds, cycles)
	compareWideToScalar(t, name, c.Netlist(), wide, wideVals, ref, refVals, seeds)
}

// TestWideEventKernelEquivalence: for every built-in circuit and every
// non-uniform delay model family, in both modes, one 64-lane run must be
// bit-identical to 64 scalar runs merged in seed order. Enforced in CI
// under -race alongside TestWideKernelEquivalence, with -short, which
// runs 16 lanes: the scalar reference is nearly all of the cost.
func TestWideEventKernelEquivalence(t *testing.T) {
	seeds := seedBlock(77)
	if testing.Short() {
		seeds = seeds[:16]
	}
	for _, circuit := range registry.Names() {
		nl, err := registry.Build(circuit)
		if err != nil {
			t.Fatal(err)
		}
		c := sim.Compile(nl)
		cycles := 12
		if nl.NumCells() > 2000 {
			cycles = 4 // the 16x16 multipliers: keep the 64x scalar reference affordable
		}
		for _, dm := range nonUniformModels() {
			for _, mode := range []sim.Mode{sim.Transport, sim.Inertial} {
				compareWideKernels(t, fmt.Sprintf("%s/%s/%v", circuit, dm.Name(), mode), c, sim.Options{Delay: dm, Mode: mode}, seeds, cycles)
			}
		}
	}
}

// TestWideEventKernelInertial: the lane image of the scalar kernel's
// inertial cancellation — only the newest claim per lane survives — must
// hold under unequal delays, where inertial and transport genuinely
// diverge, over more cycles than the equivalence suite runs: windows
// cut by any batch of an input (fa(0,5) and fa(0,2), where a zero-delay
// sum can change and change back inside one instant, and fa(2,0) and
// fa(3,0), where a zero-delay carry chain does) and random per-pin
// delays with zeros.
func TestWideEventKernelInertial(t *testing.T) {
	for _, circuit := range []string{"array8", "wallace8", "booth8", "dirdet8r", "cla16", "hazard"} {
		nl, err := registry.Build(circuit)
		if err != nil {
			t.Fatal(err)
		}
		c := sim.Compile(nl)
		for _, dm := range []delay.Model{delay.FullAdderRatio(2, 1), delay.FullAdderRatio(0, 2), delay.FullAdderRatio(0, 5), delay.FullAdderRatio(2, 0), delay.FullAdderRatio(3, 0), delay.Typical(), randomDelay(99, 5)} {
			name := fmt.Sprintf("%s/%s/inertial", circuit, dm.Name())
			compareWideKernels(t, name, c, sim.Options{Delay: dm, Mode: sim.Inertial}, seedBlock(5), 15)
		}
	}
}

// TestWideEventKernelPartialLanes: fewer active lanes than the word
// holds, plus the single-lane degenerate case, on the calendar and on
// the heap.
func TestWideEventKernelPartialLanes(t *testing.T) {
	nl, err := registry.Build("dirdet8r")
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Compile(nl)
	dm := delay.Typical()
	for _, tc := range []struct {
		name  string
		opts  sim.Options
		seeds []uint64
	}{
		{"typical-partial", sim.Options{Delay: dm}, seedBlock(3)[:11]},
		{"typical-single", sim.Options{Delay: dm}, []uint64{42}},
		{"huge-heap", sim.Options{Delay: hugeDelays(), MaxTimePerCycle: hugeGuard}, seedBlock(9)[:23]},
	} {
		compareWideKernels(t, tc.name, c, tc.opts, tc.seeds, 25)
	}
}

// TestWideEventPropertyRandomNetlists: the equivalence must hold on
// random netlists under randomized per-pin delay models too — DFF-free
// and sequential, with and without compound cells, transport and
// inertial.
func TestWideEventPropertyRandomNetlists(t *testing.T) {
	rng := stimulus.NewPRNG(777777)
	for trial := 0; trial < 12; trial++ {
		nl := testutil.RandomNetlist(rng, testutil.RandConfig{
			Inputs:       3 + int(rng.Uintn(6)),
			Gates:        10 + int(rng.Uintn(50)),
			Outputs:      2,
			WithDFFs:     trial%2 == 0,
			WithCompound: trial%3 != 2,
		})
		c := sim.Compile(nl)
		seeds := make([]uint64, 1+int(rng.Uintn(sim.MaxLanes)))
		for i := range seeds {
			seeds[i] = rng.Uint64()
		}
		opts := sim.Options{Delay: randomDelay(rng.Uint64(), 4)}
		if trial%4 == 3 {
			opts.Mode = sim.Inertial
		}
		compareWideKernels(t, fmt.Sprintf("trial%d(lanes=%d,mode=%v)", trial, len(seeds), opts.Mode), c, opts, seeds, 15)
	}
}

// TestNewWideKernelSelection: NewWideKernel runs every delay model and
// mode on the one wide kernel, and KernelName reports the delay class:
// uniform delay >= 1 is "wide-lockstep", everything else "wide-event".
// A transport and an inertial schedule differ once a pin has a window.
func TestNewWideKernelSelection(t *testing.T) {
	c := sim.Compile(mustBuild(t, "array8"))
	for _, tc := range []struct {
		name string
		opts sim.Options
		want string
	}{
		{"unit", sim.Options{}, "wide-lockstep"},
		{"uniform3", sim.Options{Delay: delay.Uniform(3)}, "wide-lockstep"},
		{"uniform-inertial", sim.Options{Mode: sim.Inertial}, "wide-lockstep"},
		{"faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}, "wide-event"},
		{"typical", sim.Options{Delay: delay.Typical()}, "wide-event"},
		{"faratio-inertial", sim.Options{Delay: delay.FullAdderRatio(2, 1), Mode: sim.Inertial}, "wide-event"},
		{"zero", sim.Options{Delay: delay.Zero()}, "wide-event"},
		{"unit-guard", sim.Options{MaxTimePerCycle: 4}, "wide-lockstep"},
	} {
		k := sim.NewWideKernel(c, tc.opts)
		if got := k.KernelName(); got != tc.want {
			t.Errorf("%s: kernel name %q, want %q", tc.name, got, tc.want)
		}
	}
	for _, dm := range []delay.Model{delay.Uniform(3), delay.FullAdderRatio(2, 1)} {
		transport := sim.NewSchedule(c, sim.Options{Delay: dm})
		inertial := sim.NewSchedule(c, sim.Options{Delay: dm, Mode: sim.Inertial})
		_, uniform := sim.UniformDelay(c.Netlist(), dm)
		if same := transport.Bytes() == inertial.Bytes() && transport.Instructions() == inertial.Instructions(); same != uniform {
			t.Errorf("%s: transport and inertial schedules alike %v, want %v", dm.Name(), same, uniform)
		}
	}
}
