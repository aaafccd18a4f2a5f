package glitchsim_test

import (
	"context"
	"testing"

	"glitchsim"
	"glitchsim/internal/core"
	"glitchsim/internal/stimulus"
)

// TestMeasureManyMatchesSerial: parallel batch measurement must be
// bit-identical to measuring each job serially, for any worker count.
func TestMeasureManyMatchesSerial(t *testing.T) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	rca := glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8))
	wal := glitchsim.CircuitFromNetlist(glitchsim.NewWallaceMultiplier(4))
	jobs := []glitchsim.MeasureJob{
		{Circuit: rca, Config: glitchsim.Config{Cycles: 60, Seed: 1}},
		{Circuit: rca, Config: glitchsim.Config{Cycles: 60, Seed: 2}},
		{Circuit: rca, Config: glitchsim.Config{Cycles: 40, Seed: 3, Inertial: true}},
		{Circuit: wal, Config: glitchsim.Config{Cycles: 50, Seed: 1}},
		{Circuit: wal, Config: glitchsim.Config{Cycles: 50, Seed: 4}},
	}
	want := make([]glitchsim.Activity, len(jobs))
	for i, j := range jobs {
		act, err := e.Measure(ctx, glitchsim.MeasureRequest{Circuit: j.Circuit, Config: j.Config})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = act
	}
	for _, workers := range []int{1, 2, 5, 16} {
		res, err := e.MeasureMany(ctx, glitchsim.BatchRequest{Jobs: jobs, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(res), len(jobs))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if r.Activity != want[i] {
				t.Errorf("workers=%d job %d: activity %+v, serial %+v", workers, i, r.Activity, want[i])
			}
			if r.Counter == nil {
				t.Fatalf("workers=%d job %d: nil counter", workers, i)
			}
		}
	}
}

// TestMeasureManyReportsPerJobErrors: a failing job (stimulus width
// mismatch) must not disturb its neighbours.
func TestMeasureManyReportsPerJobErrors(t *testing.T) {
	rca := glitchsim.CircuitFromNetlist(glitchsim.NewRCA(4))
	other := glitchsim.CircuitFromNetlist(glitchsim.NewRCA(6))
	bad := glitchsim.Config{Cycles: 10, Source: stimulus.NewRandom(3, 1)} // wrong width
	res, err := glitchsim.NewEngine().MeasureMany(context.Background(), glitchsim.BatchRequest{Jobs: []glitchsim.MeasureJob{
		{Circuit: rca, Config: glitchsim.Config{Cycles: 10}},
		{Circuit: rca, Config: bad},
		{},
		{Circuit: other, Config: glitchsim.Config{Cycles: 10}},
	}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", res[0].Err, res[3].Err)
	}
	if res[1].Err == nil {
		t.Error("width-mismatched job did not fail")
	}
	if res[2].Err == nil {
		t.Error("circuit-less job did not fail")
	}
}

// TestMeasureSeedsMergesCounters: the seed-merged aggregate must equal
// the sum of the individual per-seed measurements.
func TestMeasureSeedsMergesCounters(t *testing.T) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	nl := glitchsim.CircuitFromNetlist(glitchsim.NewArrayMultiplier(4))
	seeds := []uint64{1, 2, 3, 4}
	cfg := glitchsim.Config{Cycles: 50}

	agg, err := e.MeasureSeeds(ctx, glitchsim.SeedSweepRequest{Circuit: nl, Config: cfg, Seeds: seeds, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantTotal core.NetStats
	wantCycles := 0
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		counter, err := e.MeasureDetailed(ctx, glitchsim.MeasureRequest{Circuit: nl, Config: c})
		if err != nil {
			t.Fatal(err)
		}
		tot := counter.Totals()
		wantTotal.Transitions += tot.Transitions
		wantTotal.Useful += tot.Useful
		wantTotal.Useless += tot.Useless
		wantTotal.Glitches += tot.Glitches
		wantTotal.Rising += tot.Rising
		wantCycles += counter.Cycles()
	}
	got := agg.Totals()
	if got.Transitions != wantTotal.Transitions || got.Useful != wantTotal.Useful ||
		got.Useless != wantTotal.Useless || got.Glitches != wantTotal.Glitches ||
		got.Rising != wantTotal.Rising {
		t.Errorf("merged totals %+v, want %+v", got, wantTotal)
	}
	if agg.Cycles() != wantCycles {
		t.Errorf("merged cycles %d, want %d", agg.Cycles(), wantCycles)
	}

	if _, err := e.MeasureSeeds(ctx, glitchsim.SeedSweepRequest{Circuit: nl, Config: cfg, Workers: 1}); err == nil {
		t.Error("MeasureSeeds with no seeds did not fail")
	}
}

// TestCounterMergeRejectsMismatch: merging counters over different
// netlist sizes must fail rather than corrupt statistics.
func TestCounterMergeRejectsMismatch(t *testing.T) {
	a := core.NewCounter(glitchsim.NewRCA(4))
	b := core.NewCounter(glitchsim.NewRCA(8))
	if err := a.Merge(b); err == nil {
		t.Fatal("merge across differently sized netlists succeeded")
	}
}
