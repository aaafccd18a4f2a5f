package sim

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestEventQueueOrder: in calendar mode and in heap mode, every batch
// the queue pops is what a stable sort of the pending elements by time
// puts first: the earliest time, in push order. Rounds push the way a
// kernel does — a cycle's injections from time 0, then follow-ups at or
// after the batch just popped, zero delays included — with reset
// between rounds and clear in the middle of some.
func TestEventQueueOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxDelay int
		heap     bool
	}{
		{"calendar-zero", 0, false},
		{"calendar-unit", 1, false},
		{"calendar-mixed", 37, false},
		{"calendar-cap", maxCalendarWindow - 2, false},
		{"heap-over-cap", maxCalendarWindow - 1, true},
		{"heap-huge", 6000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := newEventQueue(tc.maxDelay)
			if q.keyed != tc.heap {
				t.Fatalf("heap mode %v, want %v", q.keyed, tc.heap)
			}
			rng := rand.New(rand.NewPCG(23, uint64(tc.maxDelay)))
			type item struct{ time, id int }
			var pending []item // the reference, in push order
			id := 0
			push := func(at int) {
				q.push(at, event{serial: uint64(id)})
				pending = append(pending, item{at, id})
				id++
			}
			for round := 0; round < 300; round++ {
				q.reset()
				for range 1 + rng.IntN(8) {
					push(rng.IntN(tc.maxDelay + 1))
				}
				clearAfter := -1
				if rng.IntN(4) == 0 {
					clearAfter = rng.IntN(6)
				}
				followUps := 64
				for batch := 0; !q.empty(); batch++ {
					if batch == clearAfter {
						q.clear()
						pending = pending[:0]
						break
					}
					now := q.nextTime()
					earliest := slices.MinFunc(pending, func(a, b item) int { return a.time - b.time }).time
					if now != earliest {
						t.Fatalf("round %d: nextTime %d, earliest pending %d", round, now, earliest)
					}
					var want []uint64
					kept := pending[:0]
					for _, it := range pending {
						if it.time == now {
							want = append(want, uint64(it.id))
						} else {
							kept = append(kept, it)
						}
					}
					pending = kept
					var got []uint64
					for _, e := range q.popBatch(now) {
						got = append(got, e.serial)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("round %d, time %d: popped %v, want %v", round, now, got, want)
					}
					for n := rng.IntN(4); n > 0 && followUps > 0; n-- {
						push(now + rng.IntN(tc.maxDelay+1))
						followUps--
					}
				}
				if !q.empty() || len(pending) != 0 {
					t.Fatalf("round %d: queue empty %v, %d reference elements left", round, q.empty(), len(pending))
				}
			}
		})
	}
}
