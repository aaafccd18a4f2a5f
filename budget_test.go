package glitchsim

// Resource-governance tests at the measurement layer: budget trips
// return partial counters whose statistics are bit-identical to
// truncated reference runs at the same cycle boundary (the acceptance
// bar for ErrBudgetExceeded), memory budgets reject at admission, and
// oscillation errors surface typed through the Engine.

import (
	"context"
	"errors"
	"testing"
	"time"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// tripWide probes a descending ladder of event budgets until one trips
// measureWide strictly inside the measured region (after warm-up,
// before the final step), returning the partial counter and trip error.
// Event counts per step vary by circuit and delay model, so probing
// keeps the test calibration-free; each budget's outcome is itself
// deterministic.
func tripWide(t *testing.T, c *sim.Compiled, cfg Config, lanes, maxQ int) (*core.Counter, *BudgetError) {
	t.Helper()
	ctx := context.Background()
	for budget := uint64(1 << 24); budget >= 1<<6; budget >>= 1 {
		bcfg := cfg
		bcfg.Budget = Budget{Events: budget}
		counter, err := measureWide(ctx, c, nil, bcfg, lanes, 1)
		if err == nil {
			continue // budget too large: finished untripped
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}
		if counter == nil {
			t.Fatalf("budget %d: trip returned nil partial counter", budget)
		}
		if k := be.Cycle - cfg.Warmup; k >= 1 && k < maxQ {
			return counter, be
		}
	}
	t.Fatal("no probed budget tripped inside the measured region")
	return nil, nil
}

// TestBudgetPartialWideEqualsMergedScalar is the acceptance test for
// partial statistics: a wide measurement tripped by an event budget
// after k completed measured steps must be bit-identical to the
// lane-order merge of scalar runs measuring min(quota_l, k) cycles
// each — on both word-parallel kernels.
func TestBudgetPartialWideEqualsMergedScalar(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		dm   delay.Model
	}{
		{"wide-lockstep-unit", delay.Unit()},
		{"wide-event-faratio", delay.FullAdderRatio(2, 1)},
	} {
		nl := circuits.NewArrayMultiplier(8, circuits.Cells)
		c := sim.Compile(nl)
		const lanes = 64
		cfg := Config{Cycles: 3200, Seed: 9, Delay: tc.dm}.withDefaults(nl)
		quotas := laneQuotas(cfg.Cycles, lanes)
		maxQ := quotas[0]

		partial, be := tripWide(t, c, cfg, lanes, maxQ)
		k := be.Cycle - cfg.Warmup
		t.Logf("%s: tripped after %d of %d measured steps (budget %d, used %d)",
			tc.name, k, maxQ, be.Limit, be.Used)

		// Scalar reference: each lane runs min(quota, k) measured cycles,
		// unbudgeted, merged in lane order.
		seeds := laneSeeds(cfg.Seed, lanes)
		var agg *core.Counter
		for l, seed := range seeds {
			lcfg := cfg
			lcfg.Seed = seed
			lcfg.Cycles = min(quotas[l], k)
			lcfg.Source = nil
			lcfg = lcfg.withDefaults(nl)
			counter, err := measureStream(ctx, c, lcfg)
			if err != nil {
				t.Fatalf("%s: scalar lane %d: %v", tc.name, l, err)
			}
			if agg == nil {
				agg = counter
			} else if err := agg.Merge(counter); err != nil {
				t.Fatal(err)
			}
		}

		if partial.Cycles() != agg.Cycles() {
			t.Fatalf("%s: cycles partial=%d scalar=%d", tc.name, partial.Cycles(), agg.Cycles())
		}
		for i := 0; i < nl.NumNets(); i++ {
			id := netlist.NetID(i)
			if got, want := partial.Stats(id), agg.Stats(id); got != want {
				t.Fatalf("%s: net %s partial stats differ\nwide:   %+v\nscalar: %+v",
					tc.name, nl.Nets[i].Name, got, want)
			}
		}
	}
}

// TestBudgetPartialScalarTruncates: on the scalar kernel a budget trip
// after k measured cycles is bit-identical to an unbudgeted run of
// exactly k cycles with the same seed.
func TestBudgetPartialScalarTruncates(t *testing.T) {
	ctx := context.Background()
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	c := sim.Compile(nl)
	// Defaults are re-resolved per run: a stimulus Source is a stateful
	// iterator, so every probe needs its own.
	base := Config{Cycles: 500, Seed: 5}
	cfg := base.withDefaults(nl)

	var partial *core.Counter
	var be *BudgetError
	for budget := uint64(1 << 22); budget >= 1<<6; budget >>= 1 {
		bcfg := base
		bcfg.Budget = Budget{Events: budget}
		bcfg = bcfg.withDefaults(nl)
		counter, err := measureStream(ctx, c, bcfg)
		if err == nil {
			continue
		}
		if !errors.As(err, &be) {
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}
		if k := be.Cycle - cfg.Warmup; counter != nil && k >= 1 && k < cfg.Cycles {
			partial = counter
			break
		}
		be = nil
	}
	if partial == nil {
		t.Fatal("no probed budget tripped inside the measured region")
	}
	k := be.Cycle - cfg.Warmup
	if partial.Cycles() != k {
		t.Fatalf("partial counter has %d cycles, error boundary says %d", partial.Cycles(), k)
	}

	ref := base
	ref.Cycles = k
	ref = ref.withDefaults(nl)
	refCounter, err := measureStream(ctx, c, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nl.NumNets(); i++ {
		id := netlist.NetID(i)
		if got, want := partial.Stats(id), refCounter.Stats(id); got != want {
			t.Fatalf("net %s partial stats differ\npartial: %+v\ntruncated ref: %+v",
				nl.Nets[i].Name, got, want)
		}
	}
}

// TestBudgetEngineSurfacesPartialActivity: the Engine entry points keep
// the typed error AND the partial result.
func TestBudgetEngineSurfacesPartialActivity(t *testing.T) {
	e := NewEngine()
	req := MeasureRequest{
		Circuit: CircuitFromNetlist(circuits.NewArrayMultiplier(8, circuits.Cells)),
		Config:  Config{Cycles: 3200, Budget: Budget{Events: 1 << 12}},
	}
	act, err := e.Measure(context.Background(), req)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected budget trip, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not *BudgetError", err)
	}
	counter, err2 := e.MeasureDetailed(context.Background(), req)
	if !errors.Is(err2, ErrBudgetExceeded) || counter == nil {
		t.Fatalf("MeasureDetailed: counter=%v err=%v, want partial counter + budget error", counter, err2)
	}
	if act.Cycles != counter.Cycles() {
		t.Errorf("activity cycles %d != counter cycles %d", act.Cycles, counter.Cycles())
	}
}

// TestBudgetWallClock: an absurdly small wall-clock budget trips with
// the wall_clock resource and still yields a partial counter.
func TestBudgetWallClock(t *testing.T) {
	e := NewEngine()
	counter, err := e.MeasureDetailed(context.Background(), MeasureRequest{
		Circuit: CircuitFromNetlist(circuits.NewArrayMultiplier(16, circuits.Cells)),
		Config:  Config{Cycles: 100000, Budget: Budget{WallClock: time.Nanosecond}},
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *BudgetError, got %v", err)
	}
	if be.Resource != BudgetWallClock {
		t.Errorf("resource %q, want %q", be.Resource, BudgetWallClock)
	}
	if counter == nil {
		t.Error("wall-clock trip returned nil partial counter")
	}
}

// TestBudgetMemoryAdmission: a memory budget below the estimate rejects
// before compiling; one above it admits.
func TestBudgetMemoryAdmission(t *testing.T) {
	e := NewEngine(WithCacheSize(0))
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	_, err := e.Measure(context.Background(), MeasureRequest{
		Circuit: CircuitFromNetlist(nl),
		Config:  Config{Cycles: 10, Budget: Budget{MemoryBytes: 1}},
	})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *BudgetError, got %v", err)
	}
	if be.Resource != BudgetMemory {
		t.Errorf("resource %q, want %q", be.Resource, BudgetMemory)
	}
	if be.Used == 0 {
		t.Error("admission error carries no estimate")
	}
	if _, err := e.Measure(context.Background(), MeasureRequest{
		Circuit: CircuitFromNetlist(nl),
		Config:  Config{Cycles: 10, Budget: Budget{MemoryBytes: 1 << 30}},
	}); err != nil {
		t.Fatalf("generous memory budget rejected: %v", err)
	}
}

// TestBudgetMemoryAdmissionBatch: measureMany applies admission per job
// without aborting the batch.
func TestBudgetMemoryAdmissionBatch(t *testing.T) {
	e := NewEngine()
	nl := CircuitFromNetlist(circuits.NewRCA(8, circuits.Cells))
	res, err := e.MeasureMany(context.Background(), BatchRequest{Jobs: []MeasureJob{
		{Circuit: nl, Config: Config{Cycles: 10, Budget: Budget{MemoryBytes: 1}}},
		{Circuit: nl, Config: Config{Cycles: 10}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, ErrBudgetExceeded) {
		t.Errorf("job 0: %v, want budget error", res[0].Err)
	}
	if res[1].Err != nil || res[1].Counter == nil {
		t.Errorf("job 1 should have run: %+v", res[1])
	}
}

// TestEstimateCost: the admission estimate is populated, scales with
// circuit size, and counts steps as the measurement runs them: by the
// lane decomposition, with SequentialLevels+1 settling steps for a
// word-parallel warm-up without register feedback.
func TestEstimateCost(t *testing.T) {
	e := NewEngine()
	small, err := e.EstimateCost(MeasureRequest{Circuit: CircuitNamed("rca8"), Config: Config{Cycles: 640}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.EstimateCost(MeasureRequest{Circuit: CircuitNamed("array16"), Config: Config{Cycles: 640}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Cells <= 0 || small.Nets <= 0 || small.Pins <= 0 || small.Events == 0 || small.MemoryBytes == 0 {
		t.Fatalf("estimate has zero fields: %+v", small)
	}
	if big.MemoryBytes <= small.MemoryBytes || big.Events <= small.Events {
		t.Errorf("array16 estimate not larger than rca8: %+v vs %+v", big, small)
	}
	if small.Lanes != e.Lanes() {
		t.Errorf("lanes %d, want engine default %d", small.Lanes, e.Lanes())
	}
	for _, tc := range []struct {
		name    string
		circuit string
		lanes   int
		want    int
	}{
		// The combinational warm-up settles in one word-parallel step.
		{"rca8-wide", "rca8", MaxLanes, 1 + 640/MaxLanes},
		// Lanes=1 runs every warm-up and measured cycle as its own step.
		{"rca8-scalar", "rca8", 1, 8 + 640},
		// A feed-forward pipeline settles its 8-vector default warm-up in
		// SequentialLevels+1 = 5 steps.
		{"pipemult8-wide", "pipemult8", MaxLanes, 5 + 640/MaxLanes},
		// Feedback registers warm up step by step: all SequentialLevels+1
		// default cycles.
		{"accum16-wide", "accum16", MaxLanes, 17 + 640/MaxLanes},
	} {
		est, err := e.EstimateCost(MeasureRequest{Circuit: CircuitNamed(tc.circuit), Config: Config{Cycles: 640, Lanes: tc.lanes}})
		if err != nil {
			t.Fatal(err)
		}
		if est.Steps != tc.want {
			t.Errorf("%s: steps %d, want %d", tc.name, est.Steps, tc.want)
		}
	}
}

// TestOscillationSurfacesThroughEngine: a delay model whose single hop
// exceeds the settle guard turns every cycle into a guard trip; the
// typed OscillationError must surface through Engine.Measure with hot
// nets attached.
func TestOscillationSurfacesThroughEngine(t *testing.T) {
	e := NewEngine()
	_, err := e.Measure(context.Background(), MeasureRequest{
		Circuit: CircuitFromNetlist(circuits.NewRCA(8, circuits.Cells)),
		Config:  Config{Cycles: 10, Delay: delay.Uniform(70000)}, // one hop > 1<<16 guard
	})
	if !errors.Is(err, ErrOscillation) {
		t.Fatalf("expected ErrOscillation, got %v", err)
	}
	var oe *OscillationError
	if !errors.As(err, &oe) {
		t.Fatalf("error %T is not *OscillationError", err)
	}
	if len(oe.Nets) == 0 || len(oe.Names) != len(oe.Nets) {
		t.Errorf("oscillation error names no hot nets: %+v", oe)
	}
}

// TestEngineLoad: the slot gauge reflects WithMaxConcurrency.
func TestEngineLoad(t *testing.T) {
	e := NewEngine(WithMaxConcurrency(3))
	if active, capacity := e.Load(); active != 0 || capacity != 3 {
		t.Fatalf("idle load = (%d, %d), want (0, 3)", active, capacity)
	}
}
