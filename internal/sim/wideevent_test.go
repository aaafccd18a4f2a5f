package sim_test

// Wide-event-kernel equivalence: the masked word-parallel event kernel
// must be bit-identical to 64 independent scalar runs under EVERY delay
// model — the non-uniform ones (full-adder ratios, per-type, randomized
// per-pin) included. Wherever NewWideKernel routes a configuration to
// the schedule kernel instead (transport mode, every evaluated delay >=
// 1), the schedule kernel must match the same scalar reference too.

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
// realistic-delay experiments plus a deterministic pseudo-random per-pin
// model. These tests construct the event kernel explicitly, and run the
// schedule kernel beside it where NewWideKernel would pick that one.
func nonUniformModels() []delay.Model {
	return []delay.Model{
		delay.FullAdderRatio(2, 1),
		delay.FullAdderRatio(3, 1),
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

// compareWideKernels checks the event kernel, and the schedule kernel
// whenever the options are Scheduled, against one merged scalar
// reference.
func compareWideKernels(t *testing.T, name string, c *sim.Compiled, opts sim.Options, seeds []uint64, cycles int) {
	t.Helper()
	nl := c.Netlist()
	ref, refVals := mergedScalarRuns(t, c, opts, seeds, cycles)
	wide, wideVals := wideRun(t, c, eventDriven, opts, seeds, cycles)
	compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
	if opts.Scheduled(c) {
		wide, wideVals = wideRun(t, c, scheduled, opts, seeds, cycles)
		compareWideToScalar(t, name+"/schedule", nl, wide, wideVals, ref, refVals, seeds)
	}
}

// TestWideEventKernelEquivalence: for every built-in circuit and every
// non-uniform delay model family, one 64-lane wide-event run — and one
// schedule-kernel run where the model allows it — must be bit-identical
// to 64 scalar runs merged in seed order. Enforced in CI under -race
// alongside TestWideKernelEquivalence.
func TestWideEventKernelEquivalence(t *testing.T) {
	seeds := seedBlock(77)
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
			compareWideKernels(t, fmt.Sprintf("%s/%s", circuit, dm.Name()), c, sim.Options{Delay: dm}, seeds, cycles)
		}
	}
}

// TestWideEventKernelInertial: the lane image of the scalar kernel's
// inertial cancellation — only the newest claim per lane survives — must
// hold under unequal delays, where inertial and transport genuinely
// diverge.
func TestWideEventKernelInertial(t *testing.T) {
	for _, circuit := range []string{"array8", "wallace8", "dirdet8r", "cla16", "hazard"} {
		nl, err := registry.Build(circuit)
		if err != nil {
			t.Fatal(err)
		}
		c := sim.Compile(nl)
		for _, dm := range []delay.Model{delay.FullAdderRatio(2, 1), delay.Typical(), randomDelay(99, 5)} {
			name := fmt.Sprintf("%s/%s/inertial", circuit, dm.Name())
			opts := sim.Options{Delay: dm, Mode: sim.Inertial}
			seeds := seedBlock(5)
			ref, refVals := mergedScalarRuns(t, c, opts, seeds, 15)
			wide, wideVals := wideRun(t, c, eventDriven, opts, seeds, 15)
			compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
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

// TestNewWideKernelSelection: NewWideKernel runs the schedule kernel
// when the delays are uniform or the mode is transport, every evaluated
// delay is >= 1 and the settle guard cannot trip; the event kernel
// otherwise. KernelName reports the delay class either way: uniform
// delay >= 1 is "wide-lockstep", everything else "wide-event".
func TestNewWideKernelSelection(t *testing.T) {
	c := sim.Compile(mustBuild(t, "array8"))
	for _, tc := range []struct {
		name      string
		opts      sim.Options
		scheduled bool
		want      string
	}{
		{"unit", sim.Options{}, true, "wide-lockstep"},
		{"uniform3", sim.Options{Delay: delay.Uniform(3)}, true, "wide-lockstep"},
		{"uniform-inertial", sim.Options{Mode: sim.Inertial}, true, "wide-lockstep"},
		{"faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}, true, "wide-event"},
		{"typical", sim.Options{Delay: delay.Typical()}, true, "wide-event"},
		{"faratio-inertial", sim.Options{Delay: delay.FullAdderRatio(2, 1), Mode: sim.Inertial}, false, "wide-event"},
		{"zero", sim.Options{Delay: delay.Zero()}, false, "wide-event"},
		{"unit-guard", sim.Options{MaxTimePerCycle: 4}, false, "wide-lockstep"},
	} {
		k := sim.NewWideKernel(c, tc.opts)
		if got := sim.ScheduleOf(k) != nil; got != tc.scheduled || got != tc.opts.Scheduled(c) {
			t.Errorf("%s: schedule kernel %v, Scheduled %v, want %v", tc.name, got, tc.opts.Scheduled(c), tc.scheduled)
		}
		if got := k.KernelName(); got != tc.want {
			t.Errorf("%s: kernel name %q, want %q", tc.name, got, tc.want)
		}
	}
}
