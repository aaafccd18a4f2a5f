package sim

// The word-parallel EVENT-DRIVEN kernel: 64 independent stimulus lanes
// advanced by one event-driven simulation under an arbitrary
// non-negative integer delay model — the kernel behind the paper's
// realistic-delay experiments (full-adder sum/carry ratios, per-type
// delays), where the lockstep wavefront kernel does not apply because
// different cells finish at different times.
//
// # Lane-masked events
//
// Nets stay packed (one logic.W per net) and cell evaluation stays the
// branch-free bitwise evalCellWide, but the schedule is the scalar
// kernel's event queue with one twist: a scheduled event
// is (net, t, mask, val), where mask selects the lanes whose value
// changes at time t. Delays are per cell output, not per lane, so when a
// cell is re-evaluated at time t every lane's new output value lands at
// the same instant t+d — one word event carries all lanes that actually
// change there, however few.
//
// # Per-lane equivalence
//
// Lane l of a wide-event simulation is bit-identical to a scalar
// simulation driven with lane l's stimulus:
//
//   - A cell's packed output equals the per-lane scalar eval by the
//     init-time cross-check in internal/logic.
//   - In transport mode an output event's mask is the set of lanes where
//     the new value differs from the net's projected value (its value
//     once all in-flight events have applied). A lane whose inputs did
//     not change evaluates to its projected value and drops out of the
//     mask, so it sees exactly the transitions its scalar run would: the
//     projection replays the scalar kernel's pending/no-op elision lane
//     by lane, and events on one net apply in schedule order (a net has
//     one driver pin with one fixed delay, so arrival order is schedule
//     order).
//   - In inertial mode a re-evaluated lane's claim cancels that lane
//     from the net's in-flight events before the replacement is
//     scheduled — the lane image of the scalar kernel's lastSerial
//     cancellation. Only lanes in which some input actually changed
//     re-evaluate (the per-cell changed-lane mask), so lanes idle in
//     their scalar run never cancel or reschedule anything.
//   - Zero-delay pins re-schedule within the instant, exactly like the
//     scalar kernel: an instant then spans several event batches and the
//     per-instant coalescing machinery reports one change per net with
//     the instant's initial and final packed values, dropping per-lane
//     zero-width excursions.
//
// TestWideEventKernelEquivalence enforces the equivalence against 64
// merged scalar runs for every built-in circuit under every non-uniform
// delay model family.

import (
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// maskedEvent is one scheduled net update in the wide-event kernel: the
// lanes selected by mask take val's levels at the time the queue
// carries the event for (the queue holds the time, so the arena entry
// does not repeat it). Events live in a per-cycle arena; the queue
// carries arena indices, so inertial cancellation can shrink an
// in-flight event's mask in place. A popped event's slot is free for
// the next schedule, so the arena holds the events in flight at once,
// not every event of the cycle.
type maskedEvent struct {
	val  logic.W
	mask uint64
	net  netlist.NetID
}

// wideChangeState tracks one net's membership in the current instant's
// changed set on the zero-delay coalescing path: epoch matches
// flushEpoch while the net is in changedList, and init holds its packed
// value from before the instant.
type wideChangeState struct {
	epoch int32
	init  logic.W
}

// WideEventSimulator drives one netlist for MaxLanes independent
// stimulus lanes at once under an arbitrary non-negative integer delay
// model. Like the other kernels it is not safe for concurrent use, but
// any number may share one Compiled netlist (and one DelayTable).
type WideEventSimulator struct {
	wideCore
	delays []int32 // per cell-output key, from the DelayTable

	sched []logic.W // per net: projected value after all in-flight events

	arena []maskedEvent // per-cycle event storage, indexed by the queue
	free  []int32       // arena slots of popped events, reused first
	q     eventQueue[int32]

	// Inertial-only state: the live in-flight events per net (for claim
	// cancellation) and the lanes in which each touched cell's inputs
	// changed this batch (only those lanes re-evaluate, scalar-wise).
	inertial  bool
	inflight  [][]int32 // per net: arena indices of live events
	cellLanes []uint64  // per cell: changed-lane mask of the current batch

	coalesce    bool // multi-batch instants possible (some delay is 0)
	changed     []wideChangeState
	flushEpoch  int32
	changedList []netlist.NetID
}

// NewWideEvent returns a word-parallel event-driven simulator. It
// accepts every delay model the scalar kernel accepts — unequal
// per-cell delays, zero delays, transport and inertial modes — so it
// never fails; use NewWideKernel to get the faster lockstep kernel when
// the model happens to be uniform.
func NewWideEvent(c *Compiled, opts Options) *WideEventSimulator {
	dt := opts.delayTable(c)
	nc, nn := c.n.NumCells(), c.n.NumNets()
	s := &WideEventSimulator{
		wideCore:   newWideCore(c, opts),
		delays:     dt.delays,
		sched:      make([]logic.W, nn),
		q:          newEventQueue[int32](dt.Max()),
		inertial:   opts.Mode == Inertial,
		coalesce:   dt.Min() == 0,
		flushEpoch: 1,
		changed:    make([]wideChangeState, nn),
	}
	s.arena, s.free, s.changedList = s.bufs.arena[:0], s.bufs.free[:0], s.bufs.changedList[:0]
	copy(s.sched, s.values)
	if s.inertial {
		s.inflight = make([][]int32, nn)
		s.cellLanes = make([]uint64, nc)
	}
	return s
}

// KernelName implements WideKernel.
func (s *WideEventSimulator) KernelName() string { return "wide-event" }

// Release implements WideKernel.
func (s *WideEventSimulator) Release() {
	if s.bufs == nil {
		return
	}
	s.bufs.arena, s.bufs.free, s.bufs.changedList = s.arena[:0], s.free[:0], s.changedList[:0]
	s.arena, s.free, s.changedList = nil, nil, nil
	s.release()
}

// Step simulates one clock cycle for all lanes: pi holds, per primary
// input, the packed per-lane stimulus bits (aligned with the netlist's
// PIs). It returns an error if the network fails to settle within the
// guard time in any lane; all in-flight events are discarded first.
//
//glitchsim:hotpath
func (s *WideEventSimulator) Step(pi []logic.W) error {
	// 1. Sample DFF D inputs.
	s.sampleDFFs(pi)

	// 2. Inject PI changes and DFF Q updates at t=0. The queue is empty
	// here, so projections equal settled values and the diff against the
	// projection is the scalar kernel's v==values no-op elision lane by
	// lane. Injection nets (PIs, DFF Qs) have no combinational driver,
	// so they never interact with inertial claims.
	s.arena, s.free = s.arena[:0], s.free[:0]
	s.q.reset()
	for i, id := range s.c.n.PIs {
		s.schedule(0, id, pi[i], logic.DiffMask(pi[i], s.sched[id]))
	}
	for i, q := range s.c.dffQ {
		s.schedule(0, q, s.ffQ[i], logic.DiffMask(s.ffQ[i], s.sched[q]))
	}

	// 3. Propagate.
	if s.flushEpoch >= 1<<31-1 {
		for i := range s.changed {
			s.changed[i].epoch = 0
		}
		s.flushEpoch = 1
	}
	if err := s.run(); err != nil {
		return err
	}
	s.endCycle()
	return nil
}

// schedule appends an event updating the masked lanes of net to val at
// time t and advances the net's projection. mask must be the lanes that
// differ from the projection (transport) or the re-evaluated lanes to
// claim (inertial); a zero mask is a no-op.
//
//glitchsim:hotpath
func (s *WideEventSimulator) schedule(t int, net netlist.NetID, v logic.W, mask uint64) {
	if mask == 0 {
		return
	}
	s.sched[net] = s.sched[net].Merge(v, mask)
	s.q.push(t, s.alloc(maskedEvent{val: v, mask: mask, net: net}))
}

// alloc stores ev in the arena, in the slot of a popped event when one
// is free, and returns its index.
//
//glitchsim:hotpath
func (s *WideEventSimulator) alloc(ev maskedEvent) int32 {
	if n := len(s.free) - 1; n >= 0 {
		idx := s.free[n]
		s.free = s.free[:n]
		s.arena[idx] = ev
		return idx
	}
	s.arena = append(s.arena, ev)
	return int32(len(s.arena) - 1)
}

//glitchsim:hotpath
func (s *WideEventSimulator) run() error {
	flushAt := -1
	for !s.q.empty() {
		t := s.q.nextTime()
		if t > s.guard {
			// The batch past the guard holds the nets still toggling; pop
			// it for the report — everything is discarded right after.
			batch := s.q.popBatch(t)
			nets := make([]netlist.NetID, 0, maxHotNets)
		collect:
			for _, idx := range batch {
				net := s.arena[idx].net
				for _, seen := range nets {
					if seen == net {
						continue collect
					}
				}
				if nets = append(nets, net); len(nets) == maxHotNets {
					break
				}
			}
			s.discardInFlight()
			return newOscillationError(s.c.n, s.cycle, s.guard, nets)
		}
		if flushAt >= 0 && t > flushAt {
			s.flush(flushAt)
		}
		flushAt = t
		s.applyBatch(t)
		s.evalTouched(t)
		if s.poll.due(s.events) {
			if err := s.poll.poll(s.events, s.cycle); err != nil {
				s.discardInFlight()
				return err
			}
		}
	}
	if flushAt >= 0 {
		s.flush(flushAt)
		s.settle = flushAt
	} else {
		s.settle = 0
	}
	return nil
}

// applyBatch pops and commits every event at time t: masked lanes merge
// into the packed net values, changes are recorded (directly, or into
// the per-instant coalescing state when zero delays can split an
// instant into several batches), fanout cells are marked, and the
// events' arena slots are freed.
//
//glitchsim:hotpath
func (s *WideEventSimulator) applyBatch(t int) {
	epoch := s.nextEpoch()
	batch := s.q.popBatch(t)
	s.events += uint64(len(batch))
	monitored := len(s.monitors) > 0
	fanStart, fanCells := s.c.fanStart, s.c.fanCells
	values, touchEpoch := s.values, s.touchEpoch
	flushEpoch := s.flushEpoch
	for _, idx := range batch {
		e := &s.arena[idx]
		if s.inertial {
			s.unlist(e.net, idx)
		}
		old := values[e.net]
		// Inertial cancellation can empty a lane's claim after a revert,
		// leaving an event lane equal to the committed value; like the
		// scalar kernel's values==val check, such lanes commit nothing
		// and touch no fanout.
		cm := e.mask & logic.DiffMask(e.val, old)
		if cm == 0 {
			continue
		}
		if monitored {
			if !s.coalesce {
				s.changes = append(s.changes, WideChange{Net: e.net, Old: old, New: old.Merge(e.val, cm)})
			} else if s.changed[e.net].epoch != flushEpoch {
				s.changed[e.net] = wideChangeState{epoch: flushEpoch, init: old}
				s.changedList = append(s.changedList, e.net)
			}
		}
		values[e.net] = old.Merge(e.val, cm)
		for _, cid := range fanCells[fanStart[e.net]:fanStart[e.net+1]] {
			if touchEpoch[cid] != epoch {
				touchEpoch[cid] = epoch
				s.touched = append(s.touched, cid)
			}
			if s.inertial {
				s.cellLanes[cid] |= cm
			}
		}
	}
	// The batch's events are applied: their slots take new events.
	s.free = append(s.free, batch...)
}

// evalTouched re-evaluates every cell with a changed input and schedules
// the lanes whose outputs will change.
//
//glitchsim:hotpath
func (s *WideEventSimulator) evalTouched(t int) {
	c := s.c
	delays := s.delays
	for _, cid := range s.touched {
		o0, o1, twoOut := evalCellWide(c, s.values, cid)
		base := outputsPerCell * int(cid)
		var em uint64
		if s.inertial {
			em = s.cellLanes[cid]
			s.cellLanes[cid] = 0
		}
		if o := c.outNets[base]; o != netlist.NoNet {
			s.scheduleOutput(t+int(delays[base]), o, o0, em)
		}
		if twoOut {
			if o := c.outNets[base+1]; o != netlist.NoNet {
				s.scheduleOutput(t+int(delays[base+1]), o, o1, em)
			}
		}
	}
	s.touched = s.touched[:0]
}

// scheduleOutput schedules a re-evaluated cell output. In transport mode
// the mask is the diff against the net's projection (the lane image of
// the scalar kernel's no-op elision — lanes already heading to this
// value schedule nothing). In inertial mode only the lanes in em (those
// whose inputs changed) participate: each claims its net, cancelling the
// lane from any in-flight event, unless it is already settled at the new
// value with nothing in flight.
//
//glitchsim:hotpath
func (s *WideEventSimulator) scheduleOutput(t int, net netlist.NetID, v logic.W, em uint64) {
	if !s.inertial {
		s.schedule(t, net, v, logic.DiffMask(v, s.sched[net]))
		return
	}
	list := s.inflight[net]
	var pend uint64
	for _, idx := range list {
		pend |= s.arena[idx].mask
	}
	m := em & (logic.DiffMask(v, s.values[net]) | pend)
	if m == 0 {
		return
	}
	if m&pend != 0 {
		// The claimed lanes cancel out of every in-flight event (the
		// wide image of lastSerial: per lane, only the newest scheduled
		// value survives).
		kept := list[:0]
		for _, idx := range list {
			if s.arena[idx].mask &= ^m; s.arena[idx].mask != 0 {
				kept = append(kept, idx)
			}
		}
		list = kept
	}
	idx := s.alloc(maskedEvent{val: v, mask: m, net: net})
	s.inflight[net] = append(list, idx)
	s.q.push(t, idx)
}

// unlist removes a popped event from its net's in-flight list (inertial
// mode only; fully cancelled events are removed at cancellation time, so
// the list is usually one entry).
//
//glitchsim:hotpath
func (s *WideEventSimulator) unlist(net netlist.NetID, idx int32) {
	list := s.inflight[net]
	for i, v := range list {
		if v == idx {
			s.inflight[net] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// flush reports the instant's transitions to the monitors, folding the
// coalescing state (zero-delay models) into per-net initial/final
// changes and dropping lanes that excursed back to their initial value
// within the instant.
//
//glitchsim:hotpath
func (s *WideEventSimulator) flush(t int) {
	if s.coalesce {
		buf := s.changes[:0]
		for _, net := range s.changedList {
			init := s.changed[net].init
			final := s.values[net]
			if init == final {
				continue
			}
			buf = append(buf, WideChange{Net: net, Old: init, New: final})
		}
		s.changes = buf
		s.flushEpoch++
		s.changedList = s.changedList[:0]
	}
	s.report(t)
}

// ImportState implements WideKernel: it restores the settled net
// values captured by ExportState, resyncs the projections, and resets
// per-cycle bookkeeping.
func (s *WideEventSimulator) ImportState(vals []logic.W, cycle int) {
	s.importState(vals, cycle)
	s.discardInFlight()
}

// discardInFlight clears all pending events and per-cycle bookkeeping so
// a Step after a guard or cancellation error starts from a consistent
// (if functionally stale) state.
func (s *WideEventSimulator) discardInFlight() {
	s.q.clear()
	s.arena, s.free = s.arena[:0], s.free[:0]
	copy(s.sched, s.values)
	if s.inertial {
		for i := range s.inflight {
			s.inflight[i] = s.inflight[i][:0]
		}
		clear(s.cellLanes)
	}
	s.flushEpoch++
	s.changedList = s.changedList[:0]
	s.changes = s.changes[:0]
	s.touched = s.touched[:0]
}
