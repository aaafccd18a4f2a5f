package sim

// The word-parallel (parallel-pattern) kernel: one simulation advancing
// logic.Lanes (64) independent stimulus lanes at once. Every net holds a
// packed logic.W — one three-valued level per lane — and cell evaluation
// is the branch-free bitwise form from internal/logic, cross-checked at
// init against the scalar truth tables.
//
// The kernel requires a uniform delay model (every combinational output
// has one common delay d >= 1, e.g. the paper's unit delay): then every
// lane's event at a given net occurs at the same instant, all in-flight
// events share one absolute time, and the whole simulation advances in
// lockstep wavefronts t, t+d, t+2d, …: the scalar kernel's event order
// under a uniform delay, where each time slot holds one wave. Because
// d >= 1 each instant consists of a single wave and
// each net changes at most once per instant, so no per-instant
// coalescing is needed: a popped event is always a real change in at
// least one lane.
//
// Lane l of a wide simulation is bit-identical to a scalar simulation
// driven with lane l's stimulus: per-lane evaluation is identical by the
// init-time cross-check, and the wavefront order is the scalar kernel's
// event order. TestWideKernelEquivalence enforces this against 64
// merged scalar runs for every built-in circuit.

import (
	"errors"
	"fmt"
	"sync"

	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// MaxLanes is the number of stimulus lanes one WideSimulator advances
// per step: the machine word width.
const MaxLanes = logic.Lanes

// ErrNonUniformDelay reports that a delay model is outside the lockstep
// wide kernel's reach: it needs one common per-output delay >= 1. The
// event-driven WideEventSimulator handles every delay model, so callers
// seeing this error switch kernels, not word widths (NewWideKernel does
// the switch for them).
var ErrNonUniformDelay = errors.New("sim: lockstep wide kernel requires a uniform delay model with delay >= 1")

// UniformDelay reports whether the delay model assigns one common delay
// to every connected output pin of every combinational cell of the
// netlist, and returns that delay. A netlist with no combinational
// outputs is trivially uniform with delay 1. This is the eligibility
// check for the lockstep word-parallel kernel (which additionally
// requires the delay to be >= 1, so that instants never merge). It
// folds the model through the same delay.VisitOutputs walk as table
// construction — without compiling the netlist or building a table, so
// pure kernel prediction (Engine.SelectedKernel) neither hashes nor
// allocates — and thus can never disagree with the kernels about which
// pins a model is asked about.
func UniformDelay(n *netlist.Netlist, dm delay.Model) (int, bool) {
	if dm == nil {
		dm = delay.Unit()
	}
	min, max := delay.Bounds(n, dm)
	if min != max {
		return 0, false
	}
	return min, true
}

// WideChange is one net transition of one wavefront, carrying the packed
// before/after values of all lanes.
type WideChange struct {
	Net      netlist.NetID
	Old, New logic.W
}

// WideMonitor observes wide net changes. The canonical implementation is
// core.WideCounter, which classifies per-lane transitions with popcount
// arithmetic. The changes slice passed to OnWideChanges is reused across
// wavefronts and must not be retained.
type WideMonitor interface {
	OnWideChanges(cycle, t int, changes []WideChange)
	OnCycleEnd(cycle int)
}

// WideKernel is the common face of the two word-parallel kernels: the
// lockstep WideSimulator (uniform delay models) and the event-driven
// WideEventSimulator (everything else). The measurement layer drives
// whichever NewWideKernel hands it through this interface.
type WideKernel interface {
	// Step simulates one clock cycle for all lanes (see the concrete
	// kernels' Step docs).
	Step(pi []logic.W) error
	// AttachWideMonitor registers a monitor for subsequent cycles.
	AttachWideMonitor(m WideMonitor)
	// Events returns the number of word events processed (each spans all
	// lanes of one net).
	Events() uint64
	// Cycle returns the number of completed cycles.
	Cycle() int
	// KernelName names the kernel ("wide-lockstep" or "wide-event").
	KernelName() string
	// ExportState appends the kernel's packed net values to dst and
	// returns it. Valid only at a cycle boundary (between Step calls),
	// where the net values are the kernel's entire dynamic state: all
	// event queues are empty and flip-flop sampling state is derivable
	// from the Q nets. The measurement checkpoint layer serializes this.
	ExportState(dst []logic.W) []logic.W
	// ImportState overwrites the kernel's net values with vals (length
	// NumNets) and sets the completed-cycle count, re-deriving all
	// internal caches. The next Step continues exactly as if the kernel
	// had simulated to that boundary itself.
	ImportState(vals []logic.W, cycle int)
	// Release hands the kernel's grown per-step buffers (event arena,
	// waves, change and touched-cell buffers) back to a pool the next
	// kernel draws from, so it starts at the grown capacity instead of
	// regrowing it. The kernel must not be used afterwards; a second
	// Release is a no-op, and a kernel that is never released is
	// simply collected.
	Release()
}

// NewWideKernel returns the fastest word-parallel kernel for the
// options' delay model: the lockstep wavefront kernel when the model is
// uniform with delay >= 1, the event-driven masked kernel for every
// other model (unequal per-cell delays, zero delays, inertial mode).
// Every delay model is word-parallel simulatable, so unlike NewWide this
// cannot fail.
func NewWideKernel(c *Compiled, opts Options) WideKernel {
	opts.Delays = opts.delayTable(c)
	if ws, err := NewWide(c, opts); err == nil {
		return ws
	}
	return NewWideEvent(c, opts)
}

// stepBuffers are a wide kernel's growable per-step buffers: the change
// and touched-cell buffers both kernels use, the lockstep kernel's
// waves, and the event kernel's arena, free-slot and coalescing lists.
// Each grows to its workload's working set within the first steps. A
// kernel takes one set from stepBufferPool at construction and Release
// puts it back, so a measurement that builds a kernel per shard, or a
// service that builds one per request, regrows nothing. A kernel leaves
// the fields it does not use untouched, so one set serves both kernels.
type stepBuffers struct {
	changes     []WideChange
	touched     []netlist.CellID
	wave, next  []wideEvent
	arena       []maskedEvent
	free        []int32
	changedList []netlist.NetID
}

var stepBufferPool = sync.Pool{New: func() any { return new(stepBuffers) }}

// wideCore is the state and code the two word-parallel kernels share:
// the compiled netlist, the settle guard, the packed net values and
// flip-flop samples, the touched-cell epoch set, the monitors and their
// change buffer, the cycle/settle/event counts and the poll. Both
// kernels embed it; a kernel must not declare a field of the same name,
// which would shadow the core's.
type wideCore struct {
	c     *Compiled
	guard int
	bufs  *stepBuffers // pooled backing of the growable buffers; nil once released

	values []logic.W
	ffQ    []logic.W // sampled Q, indexed like Compiled.dffCells

	touchEpoch []int32
	epoch      int32
	touched    []netlist.CellID

	monitors []WideMonitor
	changes  []WideChange // the current instant's changes, for the monitors
	cycle    int
	settle   int
	events   uint64 // word events processed (each spans all lanes)

	poll pollState // periodic cancellation + budget check
}

// newWideCore returns the reset state of a wide kernel: every net at
// its reset value in all lanes, every flip-flop sampled at 0, and a set
// of pooled step buffers.
func newWideCore(c *Compiled, opts Options) wideCore {
	b := stepBufferPool.Get().(*stepBuffers)
	s := wideCore{
		c:          c,
		guard:      opts.guardTime(),
		bufs:       b,
		values:     make([]logic.W, c.n.NumNets()),
		ffQ:        make([]logic.W, len(c.dffCells)),
		touchEpoch: make([]int32, c.n.NumCells()),
		touched:    b.touched[:0],
		changes:    b.changes[:0],
	}
	s.poll.init(opts)
	for i, v := range c.initVals {
		s.values[i] = logic.SplatW(v)
	}
	for i := range s.ffQ {
		s.ffQ[i] = logic.SplatW(logic.L0)
	}
	return s
}

// release hands the shared buffers back with the set the kernel took
// at construction; the kernel's Release stores its own first.
func (s *wideCore) release() {
	b := s.bufs
	b.changes, b.touched = s.changes[:0], s.touched[:0]
	s.bufs, s.changes, s.touched = nil, nil, nil
	stepBufferPool.Put(b)
}

// AttachWideMonitor registers a monitor for subsequent cycles.
func (s *wideCore) AttachWideMonitor(m WideMonitor) { s.monitors = append(s.monitors, m) }

// Netlist returns the simulated netlist.
func (s *wideCore) Netlist() *netlist.Netlist { return s.c.n }

// Cycle returns the number of completed cycles.
func (s *wideCore) Cycle() int { return s.cycle }

// SettleTime returns the time of the last instant of the most recent
// cycle.
func (s *wideCore) SettleTime() int { return s.settle }

// Events returns the total number of word events processed; each word
// event updates the lanes of one net at one instant.
func (s *wideCore) Events() uint64 { return s.events }

// Value returns the packed settled value of a net.
func (s *wideCore) Value(id netlist.NetID) logic.W { return s.values[id] }

// ExportState implements WideKernel: at a cycle boundary the settled
// net values are a wide kernel's entire dynamic state. Step returns with
// no event in flight, and ffQ was injected onto the Q nets — which each
// flip-flop drives alone — so ffQ[i] == values[dffQ[i]].
func (s *wideCore) ExportState(dst []logic.W) []logic.W {
	return append(dst, s.values...)
}

// importState is the shared half of ImportState: it restores the
// settled net values captured by ExportState, re-derives the flip-flop
// sample registers from their Q nets and sets the completed-cycle
// count. The kernel then discards its in-flight state.
func (s *wideCore) importState(vals []logic.W, cycle int) {
	if len(vals) != len(s.values) {
		panic(fmt.Sprintf("sim: imported state has %d nets, netlist has %d", len(vals), len(s.values)))
	}
	copy(s.values, vals)
	for i, q := range s.c.dffQ {
		s.ffQ[i] = s.values[q]
	}
	s.cycle = cycle
}

// sampleDFFs checks the stimulus width and samples every flip-flop's D
// input lane-wise: lanes with a known D take it, lanes still at X hold
// the flipflop's current state — the per-lane image of the scalar rule.
//
//glitchsim:hotpath
func (s *wideCore) sampleDFFs(pi []logic.W) {
	if len(pi) != len(s.c.n.PIs) {
		panic(fmt.Sprintf("sim: stimulus width %d, netlist has %d inputs", len(pi), len(s.c.n.PIs)))
	}
	for i, d := range s.c.dffD {
		v := s.values[d]
		k := v.Zero | v.One
		q := &s.ffQ[i]
		q.Zero = (v.Zero & k) | (q.Zero &^ k)
		q.One = (v.One & k) | (q.One &^ k)
	}
}

// nextEpoch starts the touched-cell epoch of a new batch. When the
// 32-bit stamp is about to wrap it first clears every stale stamp, so
// old epochs can never alias new ones (one clear per ~2^31 batches).
//
//glitchsim:hotpath
func (s *wideCore) nextEpoch() int32 {
	if s.epoch == 1<<31-1 {
		clear(s.touchEpoch)
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// report hands the instant's buffered changes to the monitors and
// empties the buffer.
//
//glitchsim:hotpath
func (s *wideCore) report(t int) {
	if len(s.changes) > 0 {
		for _, m := range s.monitors {
			m.OnWideChanges(s.cycle, t, s.changes)
		}
	}
	s.changes = s.changes[:0]
}

// endCycle reports the settled cycle to the monitors and counts it.
func (s *wideCore) endCycle() {
	for _, m := range s.monitors {
		m.OnCycleEnd(s.cycle)
	}
	s.cycle++
}

// wideEvent is one scheduled net update: all lanes of net take val at
// the wavefront the event was scheduled for.
type wideEvent struct {
	net netlist.NetID
	val logic.W
}

// WideSimulator drives one netlist for MaxLanes independent stimulus
// lanes at once. Like Simulator it is not safe for concurrent use, but
// any number may share one Compiled netlist.
type WideSimulator struct {
	wideCore
	d int // the uniform per-output delay, >= 1

	wave, next []wideEvent
}

// NewWide returns a word-parallel simulator for a compiled netlist. It
// fails with ErrNonUniformDelay when the options' delay model is not
// uniform with delay >= 1 — callers switch to the event-driven kernel.
// Transport and inertial modes coincide under a uniform delay (no pulse
// is ever narrower than a cell delay), so Options.Mode is accepted but
// has no effect.
func NewWide(c *Compiled, opts Options) (*WideSimulator, error) {
	d, ok := opts.delayTable(c).Uniform()
	if !ok || d < 1 {
		dm := opts.Delay
		if dm == nil {
			dm = delay.Unit()
		}
		return nil, fmt.Errorf("%w (model %s)", ErrNonUniformDelay, dm.Name())
	}
	s := &WideSimulator{wideCore: newWideCore(c, opts), d: d}
	s.wave, s.next = s.bufs.wave[:0], s.bufs.next[:0]
	return s, nil
}

// KernelName implements WideKernel.
func (s *WideSimulator) KernelName() string { return "wide-lockstep" }

// Release implements WideKernel.
func (s *WideSimulator) Release() {
	if s.bufs == nil {
		return
	}
	s.bufs.wave, s.bufs.next = s.wave[:0], s.next[:0]
	s.wave, s.next = nil, nil
	s.release()
}

// Step simulates one clock cycle for all lanes: pi holds, per primary
// input, the packed per-lane stimulus bits (aligned with the netlist's
// PIs). It returns an error if the network fails to settle within the
// guard time in any lane; all in-flight events are discarded first.
//
//glitchsim:hotpath
func (s *WideSimulator) Step(pi []logic.W) error {
	// 1. Sample DFF D inputs.
	s.sampleDFFs(pi)

	// 2. Inject PI changes and DFF Q updates at t=0.
	for i, id := range s.c.n.PIs {
		s.push(id, pi[i])
	}
	for i, q := range s.c.dffQ {
		s.push(q, s.ffQ[i])
	}

	// 3. Advance wavefronts t = 0, d, 2d, … until no lane changes.
	t, settle := 0, 0
	for len(s.next) > 0 {
		if t > s.guard {
			nets := make([]netlist.NetID, 0, maxHotNets)
			for i := range s.next {
				// A net appears at most once per wave (single driver), so
				// the pending wave needs no dedup.
				if nets = append(nets, s.next[i].net); len(nets) == maxHotNets {
					break
				}
			}
			s.discardInFlight()
			return newOscillationError(s.c.n, s.cycle, s.guard, nets)
		}
		s.wave, s.next = s.next, s.wave[:0]
		s.applyWave(t)
		s.evalTouched()
		settle = t
		t += s.d
		if s.poll.due(s.events) {
			if err := s.poll.poll(s.events, s.cycle); err != nil {
				s.discardInFlight()
				return err
			}
		}
	}
	s.settle = settle
	s.endCycle()
	return nil
}

// push schedules a net update for the next wavefront unless no lane
// would change. A net's value cannot change between push and pop (its
// single driver evaluates at most once per wave), so every queued event
// is a real change when it applies.
//
//glitchsim:hotpath
func (s *WideSimulator) push(net netlist.NetID, v logic.W) {
	if v == s.values[net] {
		return
	}
	s.next = append(s.next, wideEvent{net: net, val: v})
}

// applyWave commits every event of the current wavefront, reports the
// changes, and marks the fanout cells for re-evaluation.
//
//glitchsim:hotpath
func (s *WideSimulator) applyWave(t int) {
	epoch := s.nextEpoch()
	s.events += uint64(len(s.wave))
	monitored := len(s.monitors) > 0
	fanStart, fanCells := s.c.fanStart, s.c.fanCells
	values, touchEpoch := s.values, s.touchEpoch
	for i := range s.wave {
		e := &s.wave[i]
		if monitored {
			s.changes = append(s.changes, WideChange{Net: e.net, Old: values[e.net], New: e.val})
		}
		values[e.net] = e.val
		for _, cid := range fanCells[fanStart[e.net]:fanStart[e.net+1]] {
			if touchEpoch[cid] != epoch {
				touchEpoch[cid] = epoch
				s.touched = append(s.touched, cid)
			}
		}
	}
	s.report(t)
}

// evalTouched re-evaluates every cell with a changed input and schedules
// the outputs that differ in at least one lane.
//
//glitchsim:hotpath
func (s *WideSimulator) evalTouched() {
	c := s.c
	for _, cid := range s.touched {
		o0, o1, twoOut := evalCellWide(c, s.values, cid)
		base := outputsPerCell * int(cid)
		if o := c.outNets[base]; o != netlist.NoNet {
			s.push(o, o0)
		}
		if twoOut {
			if o := c.outNets[base+1]; o != netlist.NoNet {
				s.push(o, o1)
			}
		}
	}
	s.touched = s.touched[:0]
}

// ImportState implements WideKernel: it restores the settled net
// values captured by ExportState and resets per-cycle bookkeeping.
func (s *WideSimulator) ImportState(vals []logic.W, cycle int) {
	s.importState(vals, cycle)
	s.discardInFlight()
}

// discardInFlight clears all pending events and per-cycle bookkeeping so
// a Step after a guard or cancellation error starts from a consistent
// (if functionally stale) state.
func (s *WideSimulator) discardInFlight() {
	s.wave = s.wave[:0]
	s.next = s.next[:0]
	s.changes = s.changes[:0]
	s.touched = s.touched[:0]
}

// evalCellWide computes a cell's packed outputs from the current net
// values: the word-parallel image of the scalar evalCell, built from the
// init-cross-checked wide ops in internal/logic. It is the shared eval
// core of both wide kernels (lockstep and event-driven).
//
//glitchsim:hotpath
func evalCellWide(c *Compiled, v []logic.W, cid netlist.CellID) (o0, o1 logic.W, twoOut bool) {
	in := c.inNets[c.inStart[cid]:c.inStart[cid+1]]
	switch c.cellType[cid] {
	case netlist.FA:
		sum, cout := logic.FullAddW(v[in[0]], v[in[1]], v[in[2]])
		return sum, cout, true
	case netlist.HA:
		sum, cout := logic.HalfAddW(v[in[0]], v[in[1]])
		return sum, cout, true
	case netlist.And:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = logic.AndW(r, v[id])
		}
		return r, logic.W{}, false
	case netlist.Nand:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = logic.AndW(r, v[id])
		}
		return logic.NotW(r), logic.W{}, false
	case netlist.Or:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = logic.OrW(r, v[id])
		}
		return r, logic.W{}, false
	case netlist.Nor:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = logic.OrW(r, v[id])
		}
		return logic.NotW(r), logic.W{}, false
	case netlist.Xor:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = logic.XorW(r, v[id])
		}
		return r, logic.W{}, false
	case netlist.Xnor:
		r := v[in[0]]
		for _, id := range in[1:] {
			r = logic.XorW(r, v[id])
		}
		return logic.NotW(r), logic.W{}, false
	case netlist.Not:
		return logic.NotW(v[in[0]]), logic.W{}, false
	case netlist.Buf:
		return v[in[0]], logic.W{}, false
	case netlist.Mux2:
		return logic.MuxW(v[in[2]], v[in[0]], v[in[1]]), logic.W{}, false
	case netlist.Maj3:
		return logic.Maj3W(v[in[0]], v[in[1]], v[in[2]]), logic.W{}, false
	case netlist.Const0:
		return logic.SplatW(logic.L0), logic.W{}, false
	case netlist.Const1:
		return logic.SplatW(logic.L1), logic.W{}, false
	default:
		// Compile keeps DFFs out of every fanout list, and every
		// combinational type has a case above.
		panic("sim: evalCellWide on a cell type without a case")
	}
}
