// Package sim implements an event-driven gate-level simulator for
// synchronous netlists, the measurement instrument behind all of the
// paper's experiments.
//
// # Cycle semantics
//
// Each call to Step simulates one clock cycle:
//
//  1. Every DFF samples its D input from the settled state of the
//     previous cycle.
//  2. At time 0 of the new cycle, all primary inputs change to the new
//     stimulus vector and all DFF outputs change to their sampled values
//     ("new input bits always arrive at the beginning of a clock cycle").
//  3. The combinational network settles by discrete-event propagation
//     under the configured delay model.
//
// # Transition semantics
//
// A net transition is a change of the net's settled value between two
// consecutive time instants: all writes to a net within one instant are
// coalesced and a single OnChange is reported with the value before and
// after the instant. Zero-width pulses therefore do not count, and
// zero-delay simulation reports at most one transition per net per cycle
// (the glitch-free functional baseline).
//
// # Event order and determinism
//
// Pending events are ordered by (time, serial): time is the simulated
// instant, serial a per-simulator counter incremented on every schedule.
// The event queue (queue.go) realizes this order with a power-of-two
// ring of FIFO buckets indexed by t mod window: every per-hop cell delay
// is smaller than the window, so all in-flight events span fewer than
// window time slots, each bucket holds events of a single absolute time,
// and FIFO order within a bucket is serial order. Push and pop are O(1).
// Delay models whose per-hop delays exceed the window cap (4096 time
// units) run the same queue as a binary heap ordered by (time, push
// order), which is the same order.
//
// Simulation results — every per-net transition, its time, and
// therefore every activity statistic — are thus bit-identical across
// runs, and the word-parallel kernel reproduces them lane by lane.
//
// # Kernels
//
// Simulator is the scalar kernel: one stimulus stream, and the
// independent reference the word-parallel kernel is checked against.
// The wide kernel (wide.go), which NewWideKernel returns, advances 64
// stimulus lanes at once under every delay model and in both modes. It
// runs a Schedule (schedule.go) — one value slot per (net, potential
// change key) and one instruction per (cell, key), with batch slots for
// zero-delay pins, inertial windows, and the main slots past the settle
// guard listed for its check; built once per compiled netlist, delay
// table, mode and guard, and cached by the Engine — with no event
// queue, and counts each net once per step with
// core.WideCounter.CountCycle.
//
// # Hot-path layout
//
// New first compiles the netlist into a Compiled: flat CSR-style arrays
// of cell types, input/output net IDs and deduplicated per-net fanout
// lists. The event loop touches only these contiguous arrays, never the
// pointer-rich netlist structures. A Compiled is immutable and can be
// shared by many Simulators concurrently — the batch measurement layer
// compiles each circuit once per process, not once per goroutine. When
// no Monitor is attached, the per-instant change-coalescing bookkeeping
// is skipped entirely.
package sim

import (
	"fmt"
	"strconv"

	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// Mode selects how a cell output reacts to input changes arriving while a
// previous output change is still in flight.
type Mode uint8

const (
	// Transport delay propagates every pulse, however narrow. This is
	// the model behind the paper's unit-delay glitch counts.
	Transport Mode = iota
	// Inertial delay swallows pulses narrower than the cell delay, as a
	// real gate's output capacitance would.
	Inertial
)

// String names the mode.
func (m Mode) String() string {
	if m == Inertial {
		return "inertial"
	}
	return "transport"
}

// Options configures a Simulator.
type Options struct {
	// Delay is the propagation-delay model. Nil means unit delay.
	Delay delay.Model
	// Delays, when non-nil, is the precompiled form of Delay for the
	// simulator's Compiled netlist (see NewDelayTable) and must have been
	// built from the same Compiled and an equivalent model. It lets a
	// measurement resolve a delay model once and share the table across
	// every kernel it constructs; when nil, constructors build their own.
	Delays *DelayTable
	// Schedule, when non-nil, is NewSchedule of the Compiled netlist (or
	// of one with the same Fingerprint) under Options with the same
	// ScheduleKey. NewWideKernel runs it, and builds its own when nil, so
	// a measurement or an Engine cache can build a schedule once and
	// share it across kernels.
	Schedule *Schedule
	// Mode selects transport (default) or inertial delay handling.
	Mode Mode
	// MaxTimePerCycle guards against runaway event cascades; Step fails
	// if the network has not settled by this time. 0 means 1<<16.
	MaxTimePerCycle int
	// Cancel, when non-nil, is polled from the event loop roughly every
	// cancelCheckInterval events (the poll counter persists across Steps,
	// so even circuits with few events per cycle are checked regularly).
	// A non-nil return aborts the current Step with that error after
	// discarding all in-flight events — this is how context cancellation
	// reaches a running simulation. It must be cheap and side-effect
	// free; the measurement layer passes ctx.Err.
	Cancel func() error
	// Budget bounds the simulator's resource consumption; the zero value
	// is unlimited. Budgets ride the same periodic poll as Cancel and
	// abort Step with a *BudgetError (see Budget for the overshoot
	// semantics).
	Budget Budget
}

// delayTable returns opts.Delays, or a table built for opts.Delay (nil
// means unit delay) when none was supplied.
func (opts Options) delayTable(c *Compiled) *DelayTable {
	if opts.Delays != nil {
		return opts.Delays
	}
	return NewDelayTable(c, opts.Delay)
}

// guardTime returns the settle guard, MaxTimePerCycle or its default.
func (opts Options) guardTime() int {
	if opts.MaxTimePerCycle == 0 {
		return 1 << 16
	}
	return opts.MaxTimePerCycle
}

// inertial reports whether a schedule under dt gets inertial windows: in
// inertial mode under a non-uniform table. Under a uniform delay no pulse
// is narrower than a cell delay, and both modes coincide.
func (opts Options) inertial(dt *DelayTable) bool {
	_, uniform := dt.Uniform()
	return opts.Mode == Inertial && !uniform
}

// ScheduleKey returns what NewSchedule(c, opts) depends on besides c's
// Fingerprint: the delay table's Digest, the settle guard and, where it
// matters, the mode. Options with equal keys build equal schedules.
func (opts Options) ScheduleKey(c *Compiled) string {
	dt := opts.delayTable(c)
	key := strconv.FormatUint(dt.Digest(), 16) + "/" + strconv.Itoa(opts.guardTime())
	if opts.inertial(dt) {
		key += "/inertial"
	}
	return key
}

// cancelCheckInterval is the number of processed events between two
// Cancel polls: frequent enough that cancellation lands within
// microseconds of simulated work, rare enough to stay invisible on the
// hot path.
const cancelCheckInterval = 4096

// Monitor observes net value changes. Implementations include the
// activity counter (package core) and the VCD writer (package vcd).
type Monitor interface {
	// OnChange reports that net settled from old to new at time t of the
	// given cycle. old may be logic.X during start-up.
	OnChange(net netlist.NetID, cycle, t int, old, new logic.V)
	// OnCycleEnd reports that the network has settled for the cycle.
	OnCycleEnd(cycle int)
}

// event is one scheduled net update; the queue holds its time. key is
// the cell-output key for inertial cancellation, -1 for injections.
type event struct {
	serial uint64
	net    netlist.NetID
	key    int32
	val    logic.V
}

// netChange is one coalesced per-instant net transition, buffered until
// the instant is flushed to the monitors.
type netChange struct {
	net      netlist.NetID
	old, new logic.V
}

// Simulator drives one netlist. It is not safe for concurrent use, but
// any number of Simulators may share one Compiled netlist.
type Simulator struct {
	c     *Compiled
	mode  Mode
	guard int

	values []logic.V
	ffQ    []logic.V // sampled Q, indexed like Compiled.dffCells
	delays []int32   // per cell-output key, precomputed from the model

	q          eventQueue
	serial     uint64
	pending    []int32  // in-flight events per net
	lastSerial []uint64 // per cell-output key, for inertial cancellation

	coalesce    bool          // multi-batch instants possible (some delay is 0)
	changed     []changeState // per net: flush epoch + pre-instant value
	flushEpoch  int32
	changedList []netlist.NetID
	changeBuf   []netChange

	touchEpoch []int32
	epoch      int32
	touched    []netlist.CellID

	monitors []Monitor
	cycle    int
	settle   int    // settle time of the most recent cycle
	events   uint64 // total events processed

	poll pollState // periodic cancellation + budget check
}

// New returns a Simulator for the netlist. The netlist must be valid (see
// netlist.Validate); New panics otherwise, since simulating an invalid
// netlist produces meaningless activity numbers.
func New(n *netlist.Netlist, opts Options) *Simulator {
	return NewFromCompiled(Compile(n), opts)
}

// NewFromCompiled returns a Simulator running on a previously compiled
// netlist, skipping validation and compilation. This is the constructor
// the batch layer uses: one Compile, many concurrent simulators.
func NewFromCompiled(c *Compiled, opts Options) *Simulator {
	// Delay models are deterministic, so per-output delays are resolved
	// once, into the table shared with the word-parallel kernels, and the
	// event loop never makes an interface call.
	dt := opts.delayTable(c)
	n := c.n
	nc, nn := n.NumCells(), n.NumNets()
	s := &Simulator{
		c:          c,
		mode:       opts.Mode,
		guard:      opts.guardTime(),
		values:     make([]logic.V, nn),
		ffQ:        make([]logic.V, len(c.dffCells)),
		delays:     dt.delays,
		pending:    make([]int32, nn),
		lastSerial: make([]uint64, outputsPerCell*nc),
		changed:    make([]changeState, nn),
		flushEpoch: 1,
		touchEpoch: make([]int32, nc),
		q:          newEventQueue(dt.Max()),
	}
	s.poll.init(opts)
	copy(s.values, c.initVals)
	for i := range s.ffQ {
		s.ffQ[i] = logic.L0
	}

	// With every evaluated delay >= 1, an instant consists of exactly one
	// event batch and each net (single driver pin, fixed per-pin delay)
	// changes at most once per instant, so transitions can be recorded
	// directly as they commit. Zero-delay pins re-schedule within the
	// instant and need the full per-instant coalescing machinery.
	s.coalesce = dt.MinEvaluated() == 0
	return s
}

// AttachMonitor registers a monitor for subsequent cycles.
func (s *Simulator) AttachMonitor(m Monitor) { s.monitors = append(s.monitors, m) }

// DetachMonitors removes all monitors.
func (s *Simulator) DetachMonitors() { s.monitors = nil }

// Netlist returns the simulated netlist.
func (s *Simulator) Netlist() *netlist.Netlist { return s.c.n }

// Cycle returns the number of completed cycles.
func (s *Simulator) Cycle() int { return s.cycle }

// SettleTime returns the time at which the most recent cycle settled.
func (s *Simulator) SettleTime() int { return s.settle }

// Events returns the total number of events processed since
// construction, the raw workload measure behind events/sec throughput.
func (s *Simulator) Events() uint64 { return s.events }

// Value returns the settled value of a net.
func (s *Simulator) Value(id netlist.NetID) logic.V { return s.values[id] }

// BusValue returns the settled values of a bus (LSB first).
func (s *Simulator) BusValue(bus []netlist.NetID) logic.Vector {
	v := make(logic.Vector, len(bus))
	for i, id := range bus {
		v[i] = s.values[id]
	}
	return v
}

// Outputs returns the settled primary-output vector.
func (s *Simulator) Outputs() logic.Vector { return s.BusValue(s.c.n.POs) }

// Step simulates one clock cycle with the given primary-input vector
// (aligned with the netlist's PIs). It returns an error if the network
// fails to settle within the configured guard time; the simulator
// discards all in-flight events before reporting it.
//
//glitchsim:hotpath
func (s *Simulator) Step(pi logic.Vector) error {
	if len(pi) != len(s.c.n.PIs) {
		panic(fmt.Sprintf("sim: stimulus width %d, netlist has %d inputs", len(pi), len(s.c.n.PIs)))
	}

	// 1. Sample DFF D inputs from the previous cycle's settled state. An
	// unknown D holds the flipflop's current (reset) state, so circuits
	// always leave X within a few cycles.
	for i, d := range s.c.dffD {
		if v := s.values[d]; v.Known() {
			s.ffQ[i] = v
		}
	}

	// 2. Inject PI changes and DFF Q updates at t=0.
	s.q.reset()
	for i, id := range s.c.n.PIs {
		s.schedule(0, id, pi[i], -1)
	}
	for i, q := range s.c.dffQ {
		s.schedule(0, q, s.ffQ[i], -1)
	}

	// 3. Propagate.
	if s.flushEpoch >= 1<<31-1 {
		// Same wrap guard as applyBatch, for the per-net change stamps.
		for i := range s.changed {
			s.changed[i].epoch = 0
		}
		s.flushEpoch = 1
	}
	if err := s.run(); err != nil {
		return err
	}
	for _, m := range s.monitors {
		m.OnCycleEnd(s.cycle)
	}
	s.cycle++
	return nil
}

//glitchsim:hotpath
func (s *Simulator) schedule(t int, net netlist.NetID, v logic.V, key int32) {
	// Skip no-ops: the value already holds and nothing is in flight.
	if v == s.values[net] && s.pending[net] == 0 {
		if key >= 0 {
			s.lastSerial[key] = 0 // cancel any stale inertial claim
		}
		return
	}
	s.serial++
	if key >= 0 && s.mode == Inertial {
		s.lastSerial[key] = s.serial
	}
	s.pending[net]++
	s.q.push(t, event{serial: s.serial, net: net, val: v, key: key})
}

//glitchsim:hotpath
func (s *Simulator) run() error {
	flushAt := -1
	for !s.q.empty() {
		t := s.q.nextTime()
		if t > s.guard {
			nets := s.hotNets()
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

// hotNets collects up to maxHotNets nets with events still in flight —
// the nets feeding the unsettled cascade a guard trip reports.
func (s *Simulator) hotNets() []netlist.NetID {
	var nets []netlist.NetID
	for net, n := range s.pending {
		if n > 0 {
			nets = append(nets, netlist.NetID(net))
			if len(nets) == maxHotNets {
				break
			}
		}
	}
	return nets
}

// discardInFlight clears all pending events and per-cycle bookkeeping so
// a Step after a guard error starts from a consistent (if functionally
// stale) state instead of corrupting the queue.
func (s *Simulator) discardInFlight() {
	s.q.clear()
	for i := range s.pending {
		s.pending[i] = 0
	}
	s.flushEpoch++
	s.changedList = s.changedList[:0]
	s.changeBuf = s.changeBuf[:0]
	s.touched = s.touched[:0]
}

// changeState tracks one net's membership in the current instant's
// changed set: epoch matches flushEpoch while the net is in changedList,
// and init holds its value from before the instant.
type changeState struct {
	epoch int32
	init  logic.V
}

// applyBatch pops and applies every event at time t, recording per-net
// initial values (when a monitor is attached) and marking affected
// combinational cells.
//
//glitchsim:hotpath
func (s *Simulator) applyBatch(t int) {
	if s.epoch == 1<<31-1 {
		// The 32-bit epoch stamp is about to wrap: invalidate all stale
		// stamps so old epochs can never alias new ones. Amortized cost
		// is one clear per ~2^31 instants.
		clear(s.touchEpoch)
		s.epoch = 0
	}
	s.epoch++
	epoch := s.epoch
	batch := s.q.popBatch(t)
	s.events += uint64(len(batch))
	monitored := len(s.monitors) > 0
	inertial := s.mode == Inertial
	fanStart, fanCells := s.c.fanStart, s.c.fanCells
	values, pending, touchEpoch := s.values, s.pending, s.touchEpoch
	flushEpoch := s.flushEpoch
	for i := range batch {
		e := &batch[i]
		pending[e.net]--
		if e.key >= 0 && inertial && s.lastSerial[e.key] != e.serial {
			continue // cancelled by a later evaluation of the same output
		}
		if values[e.net] == e.val {
			continue
		}
		if monitored {
			if !s.coalesce {
				s.changeBuf = append(s.changeBuf, netChange{net: e.net, old: values[e.net], new: e.val})
			} else if s.changed[e.net].epoch != flushEpoch {
				s.changed[e.net] = changeState{epoch: flushEpoch, init: values[e.net]}
				s.changedList = append(s.changedList, e.net)
			}
		}
		values[e.net] = e.val
		for _, cid := range fanCells[fanStart[e.net]:fanStart[e.net+1]] {
			if touchEpoch[cid] != epoch {
				touchEpoch[cid] = epoch
				s.touched = append(s.touched, cid)
			}
		}
	}
}

// evalTouched re-evaluates every cell whose inputs changed at time t and
// schedules the resulting output changes.
//
//glitchsim:hotpath
func (s *Simulator) evalTouched(t int) {
	c := s.c
	values, pending := s.values, s.pending
	transport := s.mode != Inertial
	for _, cid := range s.touched {
		o0, o1, twoOut := s.evalCell(cid)
		base := outputsPerCell * int(cid)
		// The no-op elision check from schedule is inlined here for
		// transport mode, where the common already-settled case needs no
		// inertial-claim bookkeeping.
		if o := c.outNets[base]; o != netlist.NoNet {
			if !transport || o0 != values[o] || pending[o] != 0 {
				s.schedule(t+int(s.delays[base]), o, o0, int32(base))
			}
		}
		if twoOut {
			if o := c.outNets[base+1]; o != netlist.NoNet {
				if !transport || o1 != values[o] || pending[o] != 0 {
					s.schedule(t+int(s.delays[base+1]), o, o1, int32(base+1))
				}
			}
		}
	}
	s.touched = s.touched[:0]
}

// flush reports the instant's transitions to the monitors. On the
// coalescing path the per-net change records are first folded into the
// change buffer, dropping zero-width excursions; on the direct path the
// buffer was already filled as values committed.
//
//glitchsim:hotpath
func (s *Simulator) flush(t int) {
	if s.coalesce {
		buf := s.changeBuf[:0]
		for _, net := range s.changedList {
			init := s.changed[net].init
			final := s.values[net]
			if init == final {
				continue // zero-width excursion within one instant
			}
			buf = append(buf, netChange{net: net, old: init, new: final})
		}
		s.changeBuf = buf
		s.flushEpoch++
		s.changedList = s.changedList[:0]
	}
	for _, m := range s.monitors {
		for i := range s.changeBuf {
			ch := &s.changeBuf[i]
			m.OnChange(ch.net, s.cycle, t, ch.old, ch.new)
		}
	}
	s.changeBuf = s.changeBuf[:0]
}
