package glitchsim_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"glitchsim"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
)

// TestEngineCacheReusesCompilation: separately built instances of the
// same circuit must hit the compiled-netlist cache (fingerprint
// identity), and the LRU bound must hold.
func TestEngineCacheReusesCompilation(t *testing.T) {
	e := glitchsim.NewEngine()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		// A fresh netlist value every time: pointer identity can't help.
		if _, err := e.Measure(ctx, glitchsim.MeasureRequest{
			Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)), Config: glitchsim.Config{Cycles: 20},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.CacheStats()
	if cs.Misses != 1 {
		t.Errorf("3 measurements of one circuit compiled %d times, want 1", cs.Misses)
	}
	if cs.Hits != 2 {
		t.Errorf("hits = %d, want 2", cs.Hits)
	}
	if cs.Size != 1 {
		t.Errorf("cache size = %d, want 1", cs.Size)
	}
}

func TestEngineCacheEviction(t *testing.T) {
	e := glitchsim.NewEngine(glitchsim.WithCacheSize(1))
	ctx := context.Background()
	circuits := []int{4, 8, 4}
	for _, w := range circuits {
		if _, err := e.Measure(ctx, glitchsim.MeasureRequest{
			Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(w)), Config: glitchsim.Config{Cycles: 10},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cs := e.CacheStats()
	if cs.Size != 1 {
		t.Errorf("cache size = %d, want 1 (capacity 1)", cs.Size)
	}
	if cs.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", cs.Evictions)
	}
	// rca4 was evicted by rca8 and recompiled: 3 misses, 0 hits.
	if cs.Misses != 3 {
		t.Errorf("misses = %d, want 3", cs.Misses)
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	e := glitchsim.NewEngine(glitchsim.WithCacheSize(0))
	ctx := context.Background()
	if _, err := e.Measure(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(4)), Config: glitchsim.Config{Cycles: 10},
	}); err != nil {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Size != 0 || cs.Hits != 0 || cs.Misses != 0 {
		t.Errorf("disabled cache has activity: %+v", cs)
	}
}

// TestEngineDelayModelOption: a WithDelayModel engine fills requests
// whose config carries no delay, and an explicit config delay wins.
func TestEngineDelayModelOption(t *testing.T) {
	ctx := context.Background()
	typ := glitchsim.NewEngine(glitchsim.WithDelayModel(delay.Typical()))
	nl := glitchsim.NewDirectionDetector(8, false)

	fromOption, err := typ.Measure(ctx, glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(nl), Config: glitchsim.Config{Cycles: 100}})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := glitchsim.NewEngine().Measure(ctx, glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(nl), Config: glitchsim.Config{Cycles: 100, Delay: delay.Typical()}})
	if err != nil {
		t.Fatal(err)
	}
	if fromOption != explicit {
		t.Errorf("engine delay option diverges from explicit config: %+v vs %+v", fromOption, explicit)
	}

	unit, err := typ.Measure(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(nl), Config: glitchsim.Config{Cycles: 100, Delay: delay.Unit()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if unit == fromOption {
		t.Error("explicit config delay did not override the engine option")
	}
}

// cancelPromptness bounds how long a cancelled call may keep running:
// generous against CI scheduling noise, far below the full workload's
// runtime.
const cancelPromptness = 5 * time.Second

// TestEngineMeasureCancellation: cancelling mid-measurement returns
// context.Canceled promptly, long before the requested workload could
// finish. Runs under -race in CI.
func TestEngineMeasureCancellation(t *testing.T) {
	e := glitchsim.NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// A workload that would take far longer than the promptness bound.
	_, err := e.Measure(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewArrayMultiplier(16)),
		Config:  glitchsim.Config{Cycles: 2_000_000},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Measure returned %v, want context.Canceled", err)
	}
	if elapsed > cancelPromptness {
		t.Errorf("cancellation took %v, want < %v", elapsed, cancelPromptness)
	}
}

// TestEngineMeasureSeedsCancellation: a mid-sweep cancel aborts the
// whole worker pool promptly with context.Canceled. Runs under -race in
// CI.
func TestEngineMeasureSeedsCancellation(t *testing.T) {
	e := glitchsim.NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.MeasureSeeds(ctx, glitchsim.SeedSweepRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewArrayMultiplier(16)),
		Config:  glitchsim.Config{Cycles: 100_000},
		Seeds:   seeds,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled MeasureSeeds returned %v, want context.Canceled", err)
	}
	if elapsed > cancelPromptness {
		t.Errorf("cancellation took %v, want < %v", elapsed, cancelPromptness)
	}
}

// TestEngineMeasureManyCancelMarksSkipped: jobs the cancelled pool never
// ran carry the context error in their results.
func TestEngineMeasureManyCancelMarksSkipped(t *testing.T) {
	e := glitchsim.NewEngine(glitchsim.WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	jobs := []glitchsim.MeasureJob{
		{Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(4)), Config: glitchsim.Config{Cycles: 10}},
		{Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(4)), Config: glitchsim.Config{Cycles: 10}},
	}
	results, err := e.MeasureMany(ctx, glitchsim.BatchRequest{Jobs: jobs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestEngineMaxConcurrency: the engine-wide simulation bound changes
// neither results (determinism) nor cancellation promptness — a batch
// wider than the slot count must still produce results bit-identical to
// an unbounded engine, and a cancel while jobs wait on a slot must
// surface context.Canceled.
func TestEngineMaxConcurrency(t *testing.T) {
	jobs := make([]glitchsim.MeasureJob, 6)
	for i := range jobs {
		jobs[i] = glitchsim.MeasureJob{
			Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)),
			Config:  glitchsim.Config{Cycles: 40, Seed: uint64(i + 1)},
		}
	}
	bounded := glitchsim.NewEngine(glitchsim.WithWorkers(4), glitchsim.WithMaxConcurrency(1))
	wide := glitchsim.NewEngine(glitchsim.WithWorkers(4))
	ctx := context.Background()
	got, err := bounded.MeasureMany(ctx, glitchsim.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := wide.MeasureMany(ctx, glitchsim.BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if got[i].Activity != want[i].Activity {
			t.Errorf("job %d: bounded %+v != unbounded %+v", i, got[i].Activity, want[i].Activity)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bounded.MeasureMany(cancelled, glitchsim.BatchRequest{Jobs: jobs}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// blockingSource is a stimulus source that parks the measurement on its
// first vector until released — it holds the engine's concurrency slot
// deterministically, so tests can observe a genuinely busy engine.
type blockingSource struct {
	width   int
	started chan struct{}
	release chan struct{}
	once    sync.Once
	buf     logic.Vector
}

func (s *blockingSource) Next() logic.Vector {
	s.once.Do(func() { close(s.started) })
	<-s.release
	if s.buf == nil {
		s.buf = make(logic.Vector, s.width)
	}
	return s.buf
}

func (s *blockingSource) Width() int { return s.width }

// TestEngineBusyClassification: a measurement whose context expires
// while every WithMaxConcurrency slot is held reports ErrEngineBusy
// (wrapped around the context error), the mark the async job layer
// retries on.
func TestEngineBusyClassification(t *testing.T) {
	e := glitchsim.NewEngine(glitchsim.WithMaxConcurrency(1))
	nl := glitchsim.NewRCA(8)
	src := &blockingSource{width: nl.InputWidth(), started: make(chan struct{}), release: make(chan struct{})}

	holderDone := make(chan error, 1)
	go func() {
		_, err := e.Measure(context.Background(), glitchsim.MeasureRequest{
			Circuit: glitchsim.CircuitFromNetlist(nl), Config: glitchsim.Config{Cycles: 1, Source: src},
		})
		holderDone <- err
	}()
	<-src.started // the slot is now provably held

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.Measure(ctx, glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)), Config: glitchsim.Config{Cycles: 20},
	})
	if !errors.Is(err, glitchsim.ErrEngineBusy) {
		t.Fatalf("slot-starved Measure err = %v, want ErrEngineBusy", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("busy error %v does not wrap the context error", err)
	}

	close(src.release)
	if err := <-holderDone; err != nil {
		t.Fatalf("slot-holding measurement failed: %v", err)
	}
}
