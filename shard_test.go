package glitchsim

// Split measurements: a lane-decomposed measurement that borrows free
// engine slots splits its measured steps into contiguous shards, and
// the merged shard counters must equal the serial run net by net. The
// slot tests pin the borrowing rule: which measurements borrow, that
// borrowed slots come back on every exit path, and that the slot count
// never changes a result.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// TestMeasureShards compares the serial measureWide against 2, 3 and 5
// shards on every registry circuit without register feedback, under
// unit, full-adder-ratio, typical (transport and inertial) and zero
// delay. The warm-up (default, 1, none), lane count (64, 7) and cycle
// count (1000, 1093: uneven quotas) rotate with the circuit and the
// delay model, so each combination is covered without running the
// whole cross product. A short warm-up on a pipelined circuit makes
// the first shards settle on fewer than SequentialLevels+1 vectors.
// -short (the CI race run) splits in three only and skips the circuits
// of more than 500 cells.
func TestMeasureShards(t *testing.T) {
	splits := []int{2, 3, 5}
	if testing.Short() {
		splits = []int{3}
	}
	models := []struct {
		name     string
		dm       delay.Model
		inertial bool
	}{
		{"unit", delay.Unit(), false},
		{"fa21", delay.FullAdderRatio(2, 1), false},
		{"typical", delay.Typical(), false},
		{"typical-inertial", delay.Typical(), true},
		{"zero", delay.Zero(), false},
	}
	warmups := []int{0, 1, ExplicitZero}
	lanesOpts := []int{64, 7}
	cyclesOpts := []int{1000, 1093}
	circuits := 0
	for i, name := range registry.Names() {
		nl, err := registry.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		c := sim.Compile(nl)
		if _, feedback := c.SequentialDepth(); feedback {
			continue
		}
		circuits++
		if testing.Short() && nl.NumCells() > 500 {
			continue
		}
		for j, m := range models {
			k := i + j
			cfg := Config{
				Cycles: cyclesOpts[k/2%2], Warmup: warmups[k%3], Seed: uint64(11 + i),
				Delay: m.dm, Inertial: m.inertial,
			}.withDefaults(nl)
			lanes := lanesOpts[k%2]
			if lanes == 7 && nl.NumCells() > 1000 {
				lanes = 64 // keeps the 16-bit multipliers at 16 steps
			}
			serial, err := measureWide(context.Background(), c, cfg, lanes, 1)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", name, m.name, err)
			}
			for _, shards := range splits {
				tag := fmt.Sprintf("%s/%s/warmup=%d/lanes=%d/cycles=%d/shards=%d", name, m.name, cfg.Warmup, lanes, cfg.Cycles, shards)
				got, err := measureWide(context.Background(), c, cfg, lanes, shards)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if got.Cycles() != serial.Cycles() || got.Cycles() != cfg.Cycles {
					t.Fatalf("%s: %d cycles, serial %d, want %d", tag, got.Cycles(), serial.Cycles(), cfg.Cycles)
				}
				assertSameStats(t, tag, nl, got, serial)
			}
		}
	}
	if circuits != 18 {
		t.Errorf("%d registry circuits without feedback, want 18", circuits)
	}
}

// TestMeasureShardsGuard: a shard settles from the reset state, where
// every net is unknown, and a step from there can reach events the
// serial run never schedules. Here n1 = XOR(p, p) is 0 once p is known,
// so in the serial run the AND chain behind it never changes after its
// first step; from the reset state it resolves through the chain, past
// the settle guard when a2 = a3 = 1 in some lane. A netlist whose
// critical path could exceed the guard therefore runs serially even
// when shards are offered: outcome and statistics match the serial
// run's on every seed, whether or not its own first step trips.
func TestMeasureShardsGuard(t *testing.T) {
	b := netlist.NewBuilder("xorchain")
	p, a2, a3 := b.Input("p"), b.Input("a2"), b.Input("a3")
	b.Output("y", b.And(b.And(b.Xor(p, p), a2), a3))
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Compile(nl)
	tripped, completed := 0, 0
	for seed := uint64(1); seed <= 24; seed++ {
		cfg := Config{Cycles: 32, Seed: seed, Delay: delay.Uniform(30000)}.withDefaults(nl)
		serial, serr := measureWide(context.Background(), c, cfg, 2, 1)
		split, err := measureWide(context.Background(), c, cfg, 2, 2)
		if serr != nil {
			tripped++
			if !errors.Is(serr, ErrOscillation) || err == nil || err.Error() != serr.Error() {
				t.Fatalf("seed %d: split error %v, serial %v", seed, err, serr)
			}
			continue
		}
		completed++
		if err != nil {
			t.Fatalf("seed %d: split failed with %v where the serial run completed", seed, err)
		}
		assertSameStats(t, fmt.Sprintf("seed %d", seed), nl, split, serial)
	}
	if tripped == 0 || completed == 0 {
		t.Fatalf("%d seeds tripped and %d completed: want both kinds", tripped, completed)
	}
}

// heavyRequest is a measurement that splits on an engine with a free
// slot: 16 measured steps of a combinational multiplier.
func heavyRequest(cycles int) MeasureRequest {
	return MeasureRequest{
		Circuit: CircuitNamed("array16"),
		Config:  Config{Cycles: cycles, Delay: delay.FullAdderRatio(2, 1)},
	}
}

// assertIdle fails unless every slot of e is free again.
func assertIdle(t *testing.T, name string, e *Engine) {
	t.Helper()
	if active, capacity := e.Load(); active != 0 || capacity != cap(e.sem) {
		t.Errorf("%s: Load() = (%d, %d) after the measurement, want (0, %d)", name, active, capacity, cap(e.sem))
	}
}

// TestMeasureShardsSlots: a split measurement returns its borrowed
// slots after a success, a mid-run cancel and an error, and counts
// them in Load while it runs.
func TestMeasureShardsSlots(t *testing.T) {
	t.Run("success", func(t *testing.T) {
		e := NewEngine(WithMaxConcurrency(2))
		if _, err := e.Measure(context.Background(), heavyRequest(1024)); err != nil {
			t.Fatal(err)
		}
		if n := e.borrowed.Load(); n != 1 {
			t.Errorf("borrowed %d slots, want 1", n)
		}
		assertIdle(t, "success", e)
	})
	t.Run("cancel", func(t *testing.T) {
		// Cancelled once Load shows both slots busy: the measurement
		// holds its own and the borrowed one, and a run of 2M cycles is
		// far from done.
		e := NewEngine(WithMaxConcurrency(2))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stop := make(chan struct{})
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if active, _ := e.Load(); active == 2 {
					cancel()
					return
				}
				runtime.Gosched()
			}
		}()
		_, err := e.Measure(ctx, heavyRequest(2_000_000))
		close(stop)
		<-watched
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled once Load showed the borrowed slot busy", err)
		}
		if n := e.borrowed.Load(); n != 1 {
			t.Errorf("borrowed %d slots, want 1", n)
		}
		assertIdle(t, "cancel", e)
	})
	t.Run("error", func(t *testing.T) {
		// Eligible by shardCap, so it borrows; the settle-guard check
		// then runs it serially into its oscillation error.
		e := NewEngine(WithMaxConcurrency(2))
		req := MeasureRequest{Circuit: CircuitNamed("rca8"), Config: Config{Cycles: 1024, Delay: delay.FullAdderRatio(70000, 70000)}}
		if _, err := e.Measure(context.Background(), req); !errors.Is(err, ErrOscillation) {
			t.Fatalf("err = %v, want ErrOscillation", err)
		}
		if n := e.borrowed.Load(); n != 1 {
			t.Errorf("borrowed %d slots, want 1", n)
		}
		assertIdle(t, "error", e)
	})
}

// TestMeasureShardsSlotCounts: the result does not depend on how many
// slots the measurement could borrow; WithMaxConcurrency(1) borrows
// none.
func TestMeasureShardsSlotCounts(t *testing.T) {
	req := heavyRequest(2048) // 32 steps: room for 4 shards
	nl := NewArrayMultiplier(16)
	var want *core.Counter
	for slots := 1; slots <= 3; slots++ {
		e := NewEngine(WithMaxConcurrency(slots))
		got, err := e.MeasureDetailed(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if n := e.borrowed.Load(); n != uint64(slots-1) {
			t.Errorf("%d slots: borrowed %d, want %d", slots, n, slots-1)
		}
		assertIdle(t, fmt.Sprintf("%d slots", slots), e)
		if want == nil {
			want = got
			continue
		}
		if got.Cycles() != want.Cycles() {
			t.Fatalf("%d slots: %d cycles, want %d", slots, got.Cycles(), want.Cycles())
		}
		assertSameStats(t, fmt.Sprintf("%d slots", slots), nl, got, want)
	}
}

// TestMeasureShardsBorrowNothing: measurements outside the splitting
// rule never borrow a slot, even on an engine with slots to spare: a
// netlist with register feedback, checkpointed, resumed and budgeted
// runs, runs too short to split, single-stream runs, and the jobs of a
// batch (already parallel across its jobs).
func TestMeasureShardsBorrowNothing(t *testing.T) {
	ctx := context.Background()
	var captured *MeasureCheckpoint
	ckpt := heavyRequest(1024)
	ckpt.Config.CheckpointEvery = 4
	ckpt.Config.CheckpointSink = func(cp *MeasureCheckpoint) error {
		captured = cp
		return nil
	}
	measure := func(req MeasureRequest) func(e *Engine) error {
		return func(e *Engine) error {
			_, err := e.Measure(ctx, req)
			return err
		}
	}
	budgeted := heavyRequest(1024)
	budgeted.Config.Budget = Budget{Events: 1 << 40}
	lanes1 := heavyRequest(1024)
	lanes1.Config.Lanes = 1
	for _, tc := range []struct {
		name string
		run  func(e *Engine) error
	}{
		// 313 steps: room for two shards of 8·(16+1) steps, were it not
		// for the feedback.
		{"accum16", measure(MeasureRequest{Circuit: CircuitNamed("accum16"), Config: Config{Cycles: 20_000}})},
		{"checkpointed", measure(ckpt)},
		{"resumed", func(e *Engine) error {
			if captured == nil {
				return errors.New("the checkpointed run took no checkpoint")
			}
			req := heavyRequest(1024)
			req.Config.Resume = captured
			_, err := e.Measure(ctx, req)
			return err
		}},
		{"budgeted", measure(budgeted)},
		{"500 cycles", measure(heavyRequest(500))},
		{"lanes=1", measure(lanes1)},
		{"MeasureMany", func(e *Engine) error {
			jobs := []MeasureJob{{Circuit: CircuitNamed("array16"), Config: heavyRequest(2048).Config}}
			res, err := e.MeasureMany(ctx, BatchRequest{Jobs: jobs})
			if err == nil {
				err = res[0].Err
			}
			return err
		}},
	} {
		e := NewEngine(WithMaxConcurrency(3))
		if err := tc.run(e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := e.borrowed.Load(); n != 0 {
			t.Errorf("%s: borrowed %d slots, want 0", tc.name, n)
		}
		assertIdle(t, tc.name, e)
	}
}
