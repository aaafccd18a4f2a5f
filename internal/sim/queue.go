package sim

// The event kernels' pending-event queue: one type, generic over the
// element it carries. The scalar kernel stores its events directly; the
// word-parallel event kernel stores arena indices (its events are wide
// and live in a per-cycle arena, where inertial cancellation edits them
// in place). The schedule kernel needs no queue: its instructions are
// sorted by instant once, when the schedule is built.
//
// Events pop in (time, push order). Both kernels push exactly once per
// scheduled event, so push order is the scalar kernel's serial order
// and the wide-event kernel's arena order.
//
// Contract:
//
//   - push enqueues an element at time t; t must be >= the time of the
//     last batch popped since the last reset (events never travel
//     backwards).
//   - nextTime returns the earliest pending time and must only be
//     called when the queue is non-empty.
//   - popBatch removes and returns every element queued at time t (the
//     value nextTime just returned), in push order; the returned slice
//     is only valid until the next popBatch call.
//   - reset rewinds the time origin to 0 and is only legal when empty;
//     clear additionally discards all pending elements.

// maxCalendarWindow caps the calendar ring a queue allocates; delay
// models with larger per-hop delays run the queue as a heap.
const maxCalendarWindow = 1 << 12

// eventQueue is a calendar ring: a power-of-two array of per-time FIFO
// buckets where an element at absolute time t lives in bucket t&mask.
// Cell delays are small bounded integers, so push and pop are O(1).
//
// Invariant: all in-flight times span less than the window (it exceeds
// the delay model's largest per-hop delay, and elements are only pushed
// at or after the time of the batch being processed). Each bucket
// therefore holds a single absolute time, and a forward scan from cur
// finds the earliest one.
//
// When the largest per-hop delay does not fit under maxCalendarWindow
// the queue runs keyed instead, as a binary min-heap ordered by (time,
// push order) with no bound on delays. The ring then has one bucket,
// which holds the pending elements in push order, and the heap orders
// 64-bit keys: the time in the high half, the element's index in that
// bucket — its push order — in the low half. The bucket empties only
// with the queue, so it holds one cycle's events for the kernels. push
// only appends the key; nextTime sifts the new keys into the heap. That
// keeps push small enough to inline into the kernels in both modes.
type eventQueue[E any] struct {
	size    int
	buckets [][]E
	mask    int
	cur     int // absolute time the next-bucket scan starts from
	spare   []E // previous popBatch result, recycled

	// Keyed (heap) mode.
	keyed   bool
	keys    []uint64 // time<<32 | index into buckets[0]
	ordered int      // keys[:ordered] is a heap; later keys wait for nextTime
}

// newEventQueue returns a queue for per-hop delays up to maxDelay: a
// calendar whose window is the smallest power of two above maxDelay+1,
// or a keyed heap when that window would exceed maxCalendarWindow.
func newEventQueue[E any](maxDelay int) eventQueue[E] {
	if maxDelay+2 > maxCalendarWindow {
		return eventQueue[E]{buckets: make([][]E, 1), keyed: true}
	}
	w := 4
	for w < maxDelay+2 {
		w <<= 1
	}
	return eventQueue[E]{buckets: make([][]E, w), mask: w - 1}
}

func (q *eventQueue[E]) push(t int, e E) {
	i := t & q.mask
	if q.keyed {
		q.keys = append(q.keys, uint64(t)<<32|uint64(len(q.buckets[0])))
	}
	q.buckets[i] = append(q.buckets[i], e)
	q.size++
}

func (q *eventQueue[E]) empty() bool { return q.size == 0 }

func (q *eventQueue[E]) nextTime() int {
	if q.keyed {
		q.order()
		return int(q.keys[0] >> 32)
	}
	for len(q.buckets[q.cur&q.mask]) == 0 {
		q.cur++
	}
	return q.cur
}

func (q *eventQueue[E]) popBatch(t int) []E {
	if q.keyed {
		return q.popKeyed(t)
	}
	i := t & q.mask
	b := q.buckets[i]
	q.buckets[i] = q.spare[:0]
	q.spare = b
	q.size -= len(b)
	return b
}

func (q *eventQueue[E]) reset() { q.cur = 0 }

func (q *eventQueue[E]) clear() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.keys = q.keys[:0]
	q.ordered = 0
	q.cur = 0
	q.size = 0
}

// order sifts the keys pushed since the last nextTime into the heap.
func (q *eventQueue[E]) order() {
	h := q.keys
	for j := q.ordered; j < len(h); j++ {
		key := h[j]
		i := j
		for i > 0 {
			p := (i - 1) / 2
			if h[p] <= key {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = key
	}
	q.ordered = len(h)
}

// popKeyed pops every element at time t off the heap, in push order.
// The bucket of pending elements is emptied once the queue is.
func (q *eventQueue[E]) popKeyed(t int) []E {
	q.order()
	pending := q.buckets[0]
	b := q.spare[:0]
	for len(q.keys) > 0 && int(q.keys[0]>>32) == t {
		b = append(b, pending[uint32(q.keys[0])])
		q.heapPop()
	}
	q.spare = b
	q.ordered = len(q.keys)
	if q.size -= len(b); q.size == 0 {
		q.buckets[0] = pending[:0]
	}
	return b
}

// heapPop removes the smallest key from the ordered heap.
func (q *eventQueue[E]) heapPop() {
	h := q.keys
	last := len(h) - 1
	key := h[last]
	h = h[:last]
	i := 0
	for {
		small := 2*i + 1
		if small >= last {
			break
		}
		if r := small + 1; r < last && h[r] < h[small] {
			small = r
		}
		if key <= h[small] {
			break
		}
		h[i] = h[small]
		i = small
	}
	if last > 0 {
		h[i] = key
	}
	q.keys = h
}
