package glitchsim

// White-box tests of the lane-decomposition layer: the word-parallel
// execution and the scalar lane-by-lane fallback must be bit-identical
// for the same resolved configuration, quotas must partition the cycle
// budget exactly, and Lanes=1 must reproduce the historical
// single-stream measurement.

import (
	"context"
	"fmt"
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

func TestMeasureLanesScalarWideAgree(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		build    func() *netlist.Netlist
		cycles   int
		lanes    int
		dm       delay.Model
		inertial bool
	}{
		{"rca8-unit-64", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) }, 100, 64, delay.Unit(), false},
		{"wallace8-unit-64", func() *netlist.Netlist { return circuits.NewWallaceMultiplier(8, circuits.Cells) }, 70, 64, delay.Unit(), false},
		{"dirdet8-uniform2-17", func() *netlist.Netlist {
			return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
		}, 90, 17, delay.Uniform(2), false},
		{"rca8-short-run", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) }, 5, 64, delay.Unit(), false},
		// Non-uniform models: the wide-event kernel replaces the deleted
		// scalar lane-by-lane fallback and must stay bit-identical to it.
		{"array8-faratio-64", func() *netlist.Netlist { return circuits.NewArrayMultiplier(8, circuits.Cells) }, 60, 64, delay.FullAdderRatio(2, 1), false},
		{"wallace8-typical-64", func() *netlist.Netlist { return circuits.NewWallaceMultiplier(8, circuits.Cells) }, 60, 64, delay.Typical(), false},
		{"dirdet8-faratio-23", func() *netlist.Netlist {
			return circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
		}, 90, 23, delay.FullAdderRatio(3, 1), false},
		{"rca8-zero-64", func() *netlist.Netlist { return circuits.NewRCA(8, circuits.Cells) }, 50, 64, delay.Zero(), false},
		{"array8-typical-inertial", func() *netlist.Netlist { return circuits.NewArrayMultiplier(8, circuits.Cells) }, 40, 64, delay.Typical(), true},
	} {
		nl := tc.build()
		c := sim.Compile(nl)
		// The warm-up column: the word-parallel path settles a
		// combinational warm-up in one step, the scalar reference still
		// simulates every warm-up step.
		for _, warmup := range []int{1, 2, 37, 0, ExplicitZero} {
			name := fmt.Sprintf("%s/warmup=%d", tc.name, warmup)
			cfg := Config{Cycles: tc.cycles, Warmup: warmup, Seed: 9, Delay: tc.dm, Inertial: tc.inertial}.withDefaults(nl)
			lanes := min(tc.lanes, cfg.Cycles)
			wide, err := measureWide(ctx, c, nil, cfg, lanes, 1)
			if err != nil {
				t.Fatalf("%s: wide: %v", name, err)
			}
			agg := mergedLaneStreams(t, c, cfg, lanes)
			if wide.Cycles() != agg.Cycles() || wide.Cycles() != tc.cycles {
				t.Fatalf("%s: cycles wide=%d scalar=%d want %d", name, wide.Cycles(), agg.Cycles(), tc.cycles)
			}
			assertSameStats(t, name, nl, wide, agg)
		}
	}
}

// mergedLaneStreams is the scalar reference of a lane-decomposed
// measurement: each lane's seed stream measured on its own by
// measureStream, warm-up step by step, merged in lane order. cfg has its
// defaults resolved.
func mergedLaneStreams(t *testing.T, c *sim.Compiled, cfg Config, lanes int) *core.Counter {
	t.Helper()
	quotas := laneQuotas(cfg.Cycles, lanes)
	var agg *core.Counter
	for l, seed := range laneSeeds(cfg.Seed, lanes) {
		// Only the seed stream changes: re-resolving defaults would turn a
		// resolved zero warm-up back into the default.
		lcfg := cfg
		lcfg.Seed = seed
		lcfg.Cycles = quotas[l]
		lcfg.Source = stimulus.NewRandom(c.Netlist().InputWidth(), seed)
		counter, err := measureStream(context.Background(), c, lcfg)
		if err != nil {
			t.Fatalf("scalar lane %d: %v", l, err)
		}
		if agg == nil {
			agg = counter
		} else if err := agg.Merge(counter); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// assertSameStats fails unless every net's statistics agree.
func assertSameStats(t *testing.T, name string, nl *netlist.Netlist, got, want *core.Counter) {
	t.Helper()
	for i := 0; i < nl.NumNets(); i++ {
		id := netlist.NetID(i)
		if g, w := got.Stats(id), want.Stats(id); g != w {
			t.Fatalf("%s: net %s stats differ\nwide:   %+v\nscalar: %+v", name, nl.Nets[i].Name, g, w)
		}
	}
}

// TestCombinationalWarmupSettlesOnce: a combinational lane-decomposed
// measurement settles its warm-up in one kernel step, so an event budget
// far below what a step-by-step warm-up of 10 000 cycles consumes still
// completes the run, with statistics equal to the scalar lane streams
// that do simulate every warm-up step.
func TestCombinationalWarmupSettlesOnce(t *testing.T) {
	const (
		warmup = 10_000
		lanes  = 4
		budget = 2_000
	)
	nl := circuits.NewRCA(8, circuits.Cells)
	c := sim.Compile(nl)
	cfg := Config{Cycles: 40, Warmup: warmup, Seed: 3}.withDefaults(nl)

	// The budget binds a step-by-step warm-up.
	ws := sim.NewWideKernel(c, sim.Options{})
	src := stimulus.NewWideRandom(nl.InputWidth(), laneSeeds(cfg.Seed, lanes))
	buf := make([]logic.W, nl.InputWidth())
	for i := 0; i < warmup; i++ {
		if err := ws.Step(src.NextWide(buf)); err != nil {
			t.Fatal(err)
		}
	}
	if ws.Events() <= budget {
		t.Fatalf("a %d-step warm-up uses %d events, within the %d budget", warmup, ws.Events(), budget)
	}

	bcfg := cfg
	bcfg.Budget = Budget{Events: budget}
	wide, err := measureWide(context.Background(), c, nil, bcfg, lanes, 1)
	if err != nil {
		t.Fatalf("wide: %v", err)
	}
	if wide.Cycles() != cfg.Cycles {
		t.Fatalf("measured %d cycles, want %d", wide.Cycles(), cfg.Cycles)
	}
	assertSameStats(t, "rca8", nl, wide, mergedLaneStreams(t, c, cfg, lanes))
}

// TestLaneQuotasPartitionCycles: quotas sum to the cycle budget, are
// non-increasing, and differ by at most one.
func TestLaneQuotasPartitionCycles(t *testing.T) {
	for _, tc := range []struct{ cycles, lanes int }{
		{500, 64}, {64, 64}, {65, 64}, {63, 64}, {200, 7}, {1, 1}, {4320, 64},
	} {
		q := laneQuotas(tc.cycles, tc.lanes)
		sum := 0
		for l, v := range q {
			sum += v
			if l > 0 && v > q[l-1] {
				t.Fatalf("cycles=%d lanes=%d: quotas increase at %d", tc.cycles, tc.lanes, l)
			}
		}
		if sum != tc.cycles {
			t.Fatalf("cycles=%d lanes=%d: quota sum %d", tc.cycles, tc.lanes, sum)
		}
		if q[0]-q[len(q)-1] > 1 {
			t.Fatalf("cycles=%d lanes=%d: quota spread %d..%d", tc.cycles, tc.lanes, q[0], q[len(q)-1])
		}
	}
}

// TestLaneSeedsStable: lane seeds depend only on the base seed and lane
// index — a shorter lane list is a prefix of a longer one — and distinct
// base seeds give distinct streams.
func TestLaneSeedsStable(t *testing.T) {
	a := laneSeeds(1, 64)
	b := laneSeeds(1, 16)
	for l := range b {
		if a[l] != b[l] {
			t.Fatalf("lane %d seed differs across lane counts", l)
		}
	}
	c := laneSeeds(2, 16)
	same := 0
	for l := range c {
		if c[l] == b[l] {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d lane seeds collide across base seeds", same)
	}
}

// TestLanesOneIsHistoricalStream: Lanes=1 must reproduce the
// single-stream measurement exactly (the pre-lanes behaviour), and the
// default decomposed measurement must differ from it (different stream
// pairing) while agreeing on the per-cycle invariants.
func TestLanesOneIsHistoricalStream(t *testing.T) {
	ctx := context.Background()
	nl := circuits.NewRCA(8, circuits.Cells)
	c := sim.Compile(nl)
	cfg := Config{Cycles: 120, Seed: 5}.withDefaults(nl)

	historical, err := measureStream(ctx, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaLanes, err := measureCompiled(ctx, c, nil, Config{Cycles: 120, Seed: 5}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if historical.Totals() != viaLanes.Totals() || historical.Cycles() != viaLanes.Cycles() {
		t.Fatalf("Lanes=1 diverges from the historical stream: %+v vs %+v",
			viaLanes.Totals(), historical.Totals())
	}

	decomposed, err := measureCompiled(ctx, c, nil, Config{Cycles: 120, Seed: 5}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if decomposed.Cycles() != 120 {
		t.Fatalf("decomposed cycles = %d, want 120", decomposed.Cycles())
	}
	if decomposed.Totals() == historical.Totals() {
		t.Error("decomposition produced the single-stream numbers (suspicious)")
	}
}

// TestSelectedKernel: the kernel predictor mirrors the actual routing —
// scalar for single-stream shapes, lockstep for uniform delay, event
// kernel for everything else — and the cost estimate counts the lanes
// the same rule decomposes into.
func TestSelectedKernel(t *testing.T) {
	e := NewEngine()
	mult := circuits.NewArrayMultiplier(8, circuits.Cells)
	nl := CircuitFromNetlist(mult)
	for _, tc := range []struct {
		name  string
		req   MeasureRequest
		want  Kernel
		lanes int
	}{
		{"default-unit", MeasureRequest{Circuit: nl}, KernelWideLockstep, MaxLanes},
		{"faratio", MeasureRequest{Circuit: nl, Config: Config{Delay: delay.FullAdderRatio(2, 1)}}, KernelWideEvent, MaxLanes},
		{"typical-inertial", MeasureRequest{Circuit: nl, Config: Config{Delay: delay.Typical(), Inertial: true}}, KernelWideEvent, MaxLanes},
		{"zero", MeasureRequest{Circuit: nl, Config: Config{Delay: delay.Zero()}}, KernelWideEvent, MaxLanes},
		{"lanes1", MeasureRequest{Circuit: nl, Config: Config{Lanes: 1}}, KernelScalar, 1},
		{"one-cycle", MeasureRequest{Circuit: nl, Config: Config{Cycles: 1}}, KernelScalar, 1},
		{"source", MeasureRequest{Circuit: nl, Config: Config{Source: stimulus.NewRandom(mult.InputWidth(), 3)}}, KernelScalar, 1},
		{"no-cycles", MeasureRequest{Circuit: nl, Config: Config{Cycles: ExplicitZero}}, KernelScalar, 1},
		{"two-cycles", MeasureRequest{Circuit: nl, Config: Config{Cycles: 2}}, KernelWideLockstep, 2},
		{"lanes2", MeasureRequest{Circuit: nl, Config: Config{Lanes: 2}}, KernelWideLockstep, 2},
	} {
		got, err := e.SelectedKernel(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: kernel %q, want %q", tc.name, got, tc.want)
		}
		est, err := e.EstimateCost(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if est.Lanes != tc.lanes {
			t.Errorf("%s: estimate counts %d lanes, want %d", tc.name, est.Lanes, tc.lanes)
		}
	}
}

// TestSelectedKernelHashesNothing: predicting the kernel reads the
// resolved netlist alone, so a /v1/measure request pays one fingerprint
// and one cache lookup (in Measure), not two.
func TestSelectedKernelHashesNothing(t *testing.T) {
	e := NewEngine()
	req := MeasureRequest{Circuit: CircuitFromNetlist(circuits.NewBoothMultiplier(8, circuits.Cells))}
	if _, err := e.SelectedKernel(req); err != nil {
		t.Fatal(err)
	}
	if n := e.hashes.Load(); n != 0 {
		t.Errorf("SelectedKernel hashed %d netlists, want 0", n)
	}
	if st := e.CacheStats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("SelectedKernel looked up the compiled cache: %+v", st)
	}
}

// TestConfigLanesOverridesEngine: Config.Lanes wins over the engine
// option, which wins over the MaxLanes default.
func TestConfigLanesOverridesEngine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine *Engine
		cfg    Config
		want   int
	}{
		{"engine option", NewEngine(WithLanes(4)), Config{}, 4},
		{"config over option", NewEngine(WithLanes(4)), Config{Lanes: 2}, 2},
		{"config capped", NewEngine(WithLanes(4)), Config{Lanes: 999}, MaxLanes},
		{"single stream option", NewEngine(WithLanes(1)), Config{}, 1},
		{"default", NewEngine(), Config{}, MaxLanes},
		{"zero option is default", NewEngine(WithLanes(0)), Config{}, MaxLanes},
		{"option capped", NewEngine(WithLanes(999)), Config{}, MaxLanes},
	} {
		if got := tc.engine.laneCount(tc.cfg); got != tc.want {
			t.Errorf("%s: lanes = %d, want %d", tc.name, got, tc.want)
		}
	}
}
