package sim

import (
	"slices"
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// backing returns the first element of s's backing array, nil when it
// has none: two slices with the same backing share it.
func backing[E any](s []E) *E {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// TestWideKernelRelease: an event kernel built after another's Release
// takes the released step buffers from the pool (the arena among them)
// and runs bit-identically to the released
// kernel on the same stimulus: the same statistics, settled values and
// event count. The pool may hand a Get a different set (another P's,
// or none after a collection, and the race detector drops a quarter of
// all Puts), so reuse is asked of one attempt in many.
func TestWideKernelRelease(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	c := Compile(nl)
	seeds := make([]uint64, MaxLanes)
	for i := range seeds {
		seeds[i] = uint64(3*i + 1)
	}
	type result struct {
		counter *core.Counter
		values  []logic.W
	}
	run := func(k WideKernel) result {
		counter := core.NewWideCounter(nl)
		k.AttachWideMonitor(counter)
		src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
		buf := make([]logic.W, nl.InputWidth())
		for range 12 {
			if err := k.Step(src.NextWide(buf)); err != nil {
				t.Fatal(err)
			}
		}
		return result{counter.Counter(), k.ExportState(nil)}
	}
	sameStats := func(a, b *core.Counter) bool {
		for i := range nl.NumNets() {
			if a.Stats(netlist.NetID(i)) != b.Stats(netlist.NetID(i)) {
				return false
			}
		}
		return a.Cycles() == b.Cycles()
	}
	for _, tc := range []struct {
		name   string
		kernel func() WideKernel
		arena  func(WideKernel) *maskedEvent
	}{
		{
			name:   "wide-event",
			kernel: func() WideKernel { return NewWideEvent(c, Options{Delay: delay.Typical()}) },
			arena:  func(k WideKernel) *maskedEvent { return backing(k.(*WideEventSimulator).arena) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused := false
			for attempt := 0; attempt < 40 && !reused; attempt++ {
				a := tc.kernel()
				want := run(a)
				arena := tc.arena(a)
				a.Release()
				a.Release() // a no-op
				b := tc.kernel()
				reused = arena != nil && tc.arena(b) == arena
				got := run(b)
				if !sameStats(got.counter, want.counter) {
					t.Fatalf("attempt %d: a kernel on released buffers counted %+v over %d lane-cycles, the released kernel %+v over %d",
						attempt, got.counter.Totals(), got.counter.Cycles(), want.counter.Totals(), want.counter.Cycles())
				}
				if !slices.Equal(got.values, want.values) {
					t.Fatalf("attempt %d: a kernel on released buffers settled at other values than the released kernel", attempt)
				}
				if b.Events() != a.Events() {
					t.Fatalf("attempt %d: %d events, the released kernel %d", attempt, b.Events(), a.Events())
				}
				b.Release()
			}
			if !reused {
				t.Error("no kernel built after a Release took the released buffers")
			}
		})
	}
}

// TestWideEventArenaHoldsInFlight: a popped event's arena slot takes
// the next scheduled event, so the arena holds the events in flight at
// once, a fraction of the events a cycle schedules (about 1/13 on the
// 16-bit array multiplier under the typical model).
func TestWideEventArenaHoldsInFlight(t *testing.T) {
	nl := circuits.NewArrayMultiplier(16, circuits.Cells)
	k := NewWideEvent(Compile(nl), Options{Delay: delay.Typical()})
	defer k.Release()
	seeds := make([]uint64, MaxLanes)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
	buf := make([]logic.W, nl.InputWidth())
	for range 8 {
		before := k.Events()
		if err := k.Step(src.NextWide(buf)); err != nil {
			t.Fatal(err)
		}
		if events := k.Events() - before; uint64(4*len(k.arena)) > events {
			t.Fatalf("cycle %d: the arena holds %d events of the %d the cycle applied", k.Cycle(), len(k.arena), events)
		}
	}
}
