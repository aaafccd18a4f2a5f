package sim_test

// Wide-event-kernel equivalence: the masked word-parallel event kernel
// must be bit-identical to 64 independent scalar runs under EVERY delay
// model — the non-uniform ones (full-adder ratios, per-type, randomized
// per-pin) are exactly the configurations the lockstep kernel cannot
// run. This is the test that licenses deleting the measurement layer's
// scalar lane-by-lane fallback.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/registry"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/internal/testutil"
	"glitchsim/netlist"
)

// nonUniformModels returns the delay-model families of the paper's
// realistic-delay experiments plus a deterministic pseudo-random per-pin
// model: the configurations the wide-event kernel exists for. (On
// circuits without FA/HA cells the ratio model degenerates to unit
// delay — NewWideKernel would pick the lockstep kernel there, so these
// tests construct the event kernel explicitly.)
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

// wideEventRun simulates all seeds at once on the wide-event kernel and
// returns the folded counter plus the packed final net values.
func wideEventRun(t *testing.T, c *sim.Compiled, opts sim.Options, seeds []uint64, cycles int) (*core.Counter, []logic.W) {
	t.Helper()
	nl := c.Netlist()
	ws := sim.NewWideEvent(c, opts)
	counter := core.NewWideCounter(nl)
	if len(seeds) < sim.MaxLanes {
		counter.SetLaneMask(uint64(1)<<uint(len(seeds)) - 1)
	}
	ws.AttachWideMonitor(counter)
	src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
	buf := make([]logic.W, nl.InputWidth())
	for cy := 0; cy < cycles; cy++ {
		if err := ws.Step(src.NextWide(buf)); err != nil {
			t.Fatal(err)
		}
	}
	finals := make([]logic.W, nl.NumNets())
	for n := range finals {
		finals[n] = ws.Value(netlist.NetID(n))
	}
	return counter.Counter(), finals
}

// mergedScalarModeRuns is mergedScalarRuns with an explicit delay mode.
func mergedScalarModeRuns(t *testing.T, c *sim.Compiled, opts sim.Options, seeds []uint64, cycles int) (*core.Counter, [][]logic.V) {
	t.Helper()
	nl := c.Netlist()
	var agg *core.Counter
	finals := make([][]logic.V, len(seeds))
	for i, seed := range seeds {
		s := sim.NewFromCompiled(c, opts)
		counter := core.NewCounter(nl)
		s.AttachMonitor(counter)
		src := stimulus.NewRandom(nl.InputWidth(), seed)
		for cy := 0; cy < cycles; cy++ {
			if err := s.Step(src.Next()); err != nil {
				t.Fatal(err)
			}
		}
		finals[i] = make([]logic.V, nl.NumNets())
		for n := range finals[i] {
			finals[i][n] = s.Value(netlist.NetID(n))
		}
		if agg == nil {
			agg = counter
		} else if err := agg.Merge(counter); err != nil {
			t.Fatal(err)
		}
	}
	return agg, finals
}

// TestWideEventKernelEquivalence: for every built-in circuit and every
// non-uniform delay model family, one 64-lane wide-event run must be
// bit-identical to 64 scalar runs merged in seed order. Enforced in CI
// under -race alongside the lockstep equivalence test.
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
			name := fmt.Sprintf("%s/%s", circuit, dm.Name())
			opts := sim.Options{Delay: dm}
			ref, refVals := mergedScalarModeRuns(t, c, opts, seeds, cycles)
			wide, wideVals := wideEventRun(t, c, opts, seeds, cycles)
			compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
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
			ref, refVals := mergedScalarModeRuns(t, c, opts, seeds, 15)
			wide, wideVals := wideEventRun(t, c, opts, seeds, 15)
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
		ref, refVals := mergedScalarModeRuns(t, c, tc.opts, tc.seeds, 25)
		wide, wideVals := wideEventRun(t, c, tc.opts, tc.seeds, 25)
		compareWideToScalar(t, tc.name, nl, wide, wideVals, ref, refVals, tc.seeds)
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
		name := fmt.Sprintf("trial%d(lanes=%d,mode=%v)", trial, len(seeds), opts.Mode)
		ref, refVals := mergedScalarModeRuns(t, c, opts, seeds, 15)
		wide, wideVals := wideEventRun(t, c, opts, seeds, 15)
		compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
	}
}

// TestNewWideKernelSelection: the auto constructor picks the lockstep
// kernel exactly when the model is uniform with delay >= 1, the event
// kernel otherwise (non-uniform, zero-delay, or any inertial run where
// the two modes can diverge is still fine — uniform inertial equals
// transport, so lockstep remains legal there).
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
		{"zero", sim.Options{Delay: delay.Zero()}, "wide-event"},
	} {
		if got := sim.NewWideKernel(c, tc.opts).KernelName(); got != tc.want {
			t.Errorf("%s: kernel %q, want %q", tc.name, got, tc.want)
		}
	}
}
