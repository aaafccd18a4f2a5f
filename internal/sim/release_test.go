package sim

import (
	"slices"
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/stimulus"
)

// traceMonitor records every change a wide kernel reports, with its
// cycle and instant, and every cycle end.
type traceMonitor struct {
	trace []tracedChange
	ends  []int
}

type tracedChange struct {
	cycle, t int
	change   WideChange
}

func (m *traceMonitor) OnWideChanges(cycle, t int, changes []WideChange) {
	for _, ch := range changes {
		m.trace = append(m.trace, tracedChange{cycle, t, ch})
	}
}

func (m *traceMonitor) OnCycleEnd(cycle int) { m.ends = append(m.ends, cycle) }

// backing returns the first element of s's backing array, nil when it
// has none: two slices with the same backing share it.
func backing[E any](s []E) *E {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// TestWideKernelRelease: a kernel built after another's Release takes
// the released step buffers from the pool (the event kernel's arena, the
// lockstep kernel's waves) and runs bit-identically to the released
// kernel on the same stimulus. The pool may hand a Get a different set
// (another P's, or none after a collection, and the race detector drops
// a quarter of all Puts), so reuse is asked of one attempt in many.
func TestWideKernelRelease(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	c := Compile(nl)
	seeds := make([]uint64, MaxLanes)
	for i := range seeds {
		seeds[i] = uint64(3*i + 1)
	}
	run := func(k WideKernel) *traceMonitor {
		m := &traceMonitor{}
		k.AttachWideMonitor(m)
		src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
		buf := make([]logic.W, nl.InputWidth())
		for range 12 {
			if err := k.Step(src.NextWide(buf)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	for _, tc := range []struct {
		name    string
		kernel  func() WideKernel
		buffers func(WideKernel) []*wideEvent // nil for the event kernel
		arena   func(WideKernel) *maskedEvent // nil for the lockstep kernel
	}{
		{
			name:   "wide-event",
			kernel: func() WideKernel { return NewWideEvent(c, Options{Delay: delay.Typical()}) },
			arena:  func(k WideKernel) *maskedEvent { return backing(k.(*WideEventSimulator).arena) },
		},
		{
			name: "wide-lockstep",
			kernel: func() WideKernel {
				k, err := NewWide(c, Options{Delay: delay.Unit()})
				if err != nil {
					t.Fatal(err)
				}
				return k
			},
			buffers: func(k WideKernel) []*wideEvent {
				s := k.(*WideSimulator)
				return []*wideEvent{backing(s.wave), backing(s.next)}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused := false
			for attempt := 0; attempt < 40 && !reused; attempt++ {
				a := tc.kernel()
				want := run(a)
				var arena *maskedEvent
				var waves []*wideEvent
				if tc.arena != nil {
					arena = tc.arena(a)
				} else {
					waves = tc.buffers(a)
				}
				a.Release()
				a.Release() // a no-op
				b := tc.kernel()
				if tc.arena != nil {
					reused = arena != nil && tc.arena(b) == arena
				} else {
					reused = waves[0] != nil && slices.Equal(tc.buffers(b), waves)
				}
				got := run(b)
				if !slices.Equal(got.trace, want.trace) || !slices.Equal(got.ends, want.ends) {
					t.Fatalf("attempt %d: a kernel on released buffers reported %d changes over %d cycles, the released kernel %d over %d",
						attempt, len(got.trace), len(got.ends), len(want.trace), len(want.ends))
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
