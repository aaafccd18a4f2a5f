package sim_test

// Wide-kernel equivalence: the 64-lane kernel must be bit-identical to
// 64 independent scalar runs — per-lane settled values and, after
// folding the WideCounter, every per-net activity statistic of the
// merged scalar counters. This is the test that licenses the
// parallel-pattern kernel to replace 64 scalar simulations. The
// non-uniform delay models, the "wide-event" delay class, run it in
// wideevent_test.go.

import (
	"fmt"
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

// mergedScalarRuns simulates one scalar run per seed under opts and
// merges the counters in seed order, returning the aggregate plus
// per-seed final net values.
func mergedScalarRuns(t *testing.T, c *sim.Compiled, opts sim.Options, seeds []uint64, cycles int) (*core.Counter, [][]logic.V) {
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

// wideRun simulates all seeds at once on NewWideKernel and returns the
// folded counter plus the packed final net values.
func wideRun(t *testing.T, c *sim.Compiled, opts sim.Options, seeds []uint64, cycles int) (*core.Counter, []logic.W) {
	t.Helper()
	nl := c.Netlist()
	ws := sim.NewWideKernel(c, opts)
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
	return counter.Counter(), ws.ExportState(nil)
}

// compareWideToScalar asserts bit-identical per-net stats, cycles, and
// per-lane settled values between the wide kernel and the merged scalar
// reference runs.
func compareWideToScalar(t *testing.T, name string, nl *netlist.Netlist,
	wide *core.Counter, wideVals []logic.W, ref *core.Counter, refVals [][]logic.V, seeds []uint64) {
	t.Helper()
	if wide.Cycles() != ref.Cycles() {
		t.Fatalf("%s: wide cycles %d, merged scalar %d", name, wide.Cycles(), ref.Cycles())
	}
	for i := 0; i < nl.NumNets(); i++ {
		id := netlist.NetID(i)
		if got, want := wide.Stats(id), ref.Stats(id); got != want {
			t.Fatalf("%s: net %s stats differ\nwide:   %+v\nscalar: %+v", name, nl.Nets[i].Name, got, want)
		}
		for l := range seeds {
			if got, want := wideVals[i].Lane(l), refVals[l][i]; got != want {
				t.Fatalf("%s: net %s lane %d settled at %v, scalar run %v", name, nl.Nets[i].Name, l, got, want)
			}
		}
	}
}

// TestWideKernelEquivalence: for every built-in circuit and three
// 64-seed blocks, the lane-summed WideCounter statistics of one 64-lane
// wide run must be bit-identical to 64 scalar runs merged in seed order,
// under unit delay. Enforced in CI under -race.
func TestWideKernelEquivalence(t *testing.T) {
	blocks := [][]uint64{seedBlock(1), seedBlock(1000), seedBlock(0xDEAD)}
	for _, circuit := range registry.Names() {
		nl, err := registry.Build(circuit)
		if err != nil {
			t.Fatal(err)
		}
		c := sim.Compile(nl)
		cycles := 20
		if nl.NumCells() > 2000 {
			cycles = 8 // the 16x16 multipliers: keep the 3x64 scalar reference affordable
		}
		for bi, seeds := range blocks {
			name := fmt.Sprintf("%s/block%d", circuit, bi)
			ref, refVals := mergedScalarRuns(t, c, sim.Options{Delay: delay.Unit()}, seeds, cycles)
			wide, wideVals := wideRun(t, c, sim.Options{Delay: delay.Unit()}, seeds, cycles)
			compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
		}
	}
}

// seedBlock returns 64 distinct seeds starting at base.
func seedBlock(base uint64) []uint64 {
	seeds := make([]uint64, sim.MaxLanes)
	for i := range seeds {
		seeds[i] = base + uint64(i)
	}
	return seeds
}

// TestWideKernelUniformDelays: the wide kernel must also match under
// non-unit uniform delays, and with fewer active lanes than the word
// holds (the tail chunk of a seed sweep).
func TestWideKernelUniformDelays(t *testing.T) {
	nl, err := registry.Build("dirdet8r")
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Compile(nl)
	for _, tc := range []struct {
		name  string
		dm    delay.Model
		seeds []uint64
	}{
		{"uniform3-full", delay.Uniform(3), seedBlock(7)},
		{"unit-partial", delay.Unit(), seedBlock(3)[:11]},
		{"uniform2-single", delay.Uniform(2), []uint64{42}},
	} {
		ref, refVals := mergedScalarRuns(t, c, sim.Options{Delay: tc.dm}, tc.seeds, 25)
		wide, wideVals := wideRun(t, c, sim.Options{Delay: tc.dm}, tc.seeds, 25)
		compareWideToScalar(t, tc.name, nl, wide, wideVals, ref, refVals, tc.seeds)
	}
}

// TestWidePropertyRandomNetlists: the equivalence must hold on random
// netlists too — DFF-free and sequential, with and without compound
// cells — not just the hand-built benchmark circuits.
func TestWidePropertyRandomNetlists(t *testing.T) {
	rng := stimulus.NewPRNG(424242)
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
		name := fmt.Sprintf("trial%d(lanes=%d)", trial, len(seeds))
		ref, refVals := mergedScalarRuns(t, c, sim.Options{Delay: delay.Unit()}, seeds, 15)
		wide, wideVals := wideRun(t, c, sim.Options{Delay: delay.Unit()}, seeds, 15)
		compareWideToScalar(t, name, nl, wide, wideVals, ref, refVals, seeds)
	}
}

// TestUniformDelayDetection: eligibility is decided by evaluating the
// model on the circuit, not by its type — a FullAdderRatio over a
// multiplier is non-uniform, but the same model over an adder-free
// circuit collapses to unit delay.
func TestUniformDelayDetection(t *testing.T) {
	mult := mustBuild(t, "array8")
	if d, ok := sim.UniformDelay(mult, delay.Unit()); !ok || d != 1 {
		t.Errorf("unit on array8: (%d,%v), want (1,true)", d, ok)
	}
	if d, ok := sim.UniformDelay(mult, delay.Uniform(4)); !ok || d != 4 {
		t.Errorf("uniform(4) on array8: (%d,%v), want (4,true)", d, ok)
	}
	if _, ok := sim.UniformDelay(mult, delay.FullAdderRatio(2, 1)); ok {
		t.Error("fa-ratio on array8 reported uniform")
	}
	if d, ok := sim.UniformDelay(mult, delay.Zero()); !ok || d != 0 {
		t.Errorf("zero on array8: (%d,%v), want (0,true)", d, ok)
	}
	// No FA/HA cells: the ratio model degenerates to its unit base.
	gates := mustBuild(t, "rca16g")
	if d, ok := sim.UniformDelay(gates, delay.FullAdderRatio(2, 1)); !ok || d != 1 {
		t.Errorf("fa-ratio on rca16g: (%d,%v), want (1,true)", d, ok)
	}
}

func mustBuild(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	nl, err := registry.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}
