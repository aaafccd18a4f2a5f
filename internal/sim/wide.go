package sim

// The word-parallel kernel: one simulation advancing logic.Lanes (64)
// independent stimulus lanes at once, under every delay model and in
// both delay modes. It runs a Schedule (schedule.go): one value slot per
// (net, key) and a static instruction list, with no event queue. Cell
// evaluation is the branch-free bitwise form from internal/logic,
// cross-checked at init against the scalar truth tables.
//
// Lane l is bit-identical to a scalar simulation driven with lane l's
// stimulus: the scalar kernel is the independent reference that
// TestWideKernelEquivalence, TestWideEventKernelEquivalence and their
// siblings hold it to, against 64 merged scalar runs, for every
// built-in circuit and every delay-model family.
//
// # Per-lane equivalence
//
// The scalar kernel evaluates a cell only at points where an input
// changed, and schedules an output only where it differs. Evaluating a
// cell at a key where no input changed reproduces the value its output
// already holds, so the slots hold exactly the values the scalar kernel
// gives each net, at the same keys, lane by lane; inertial windows
// reproduce its cancellations. A net's transitions are the differences
// between its consecutive main slots, the scalar flush's per-instant
// coalescing, and its word events the main slots that differ from
// their predecessor.
//
// # Forms
//
// A kernel stores its slots as logic.W's two rails in two arrays, zero
// and one. While any entry slot or stimulus word holds an X lane it
// runs three-valued, on both. Once a step settles with every lane of
// every entry slot known, no later slot can hold an X until the
// stimulus or an imported state brings one: the kernel then runs each
// step on the one rail alone (8 bytes per slot instead of 16), with
// plain Boolean logic, and a flip-flop samples its D input's entry value
// as it is. A stimulus word or an imported value with an X lane
// rebuilds the zero rail from the one rail and returns to the
// three-valued form.
//
// A kernel starts in a third form, the reset form: every entry slot
// holds its net's reset value (Compiled.initVals), which ExportState
// returns, and the one rail holds an X one as 0. Reset leaves the
// primary inputs at X, so a Step from reset runs three-valued, with its
// events, budget trips and the flip-flops' X-hold rule. A Settle from
// reset with a known stimulus runs on the one rail (see Settling). The
// zero rail is allocated when a three-valued step first needs it, and
// rebuilt from the reset values when leaving the reset form, so a run
// that never sees an X lane holds 8 bytes per slot. An import of the
// reset state keeps the reset form.
//
// # Settling
//
// Settle runs each cell's last instructions alone (see Settling in
// schedule.go) and counts one word event per net whose settled value
// changed in some lane, X → known included; from the reset form it
// compares against the reset values. From reset with a known stimulus
// it runs on the one rail, where an X entry value reads as 0: that is
// also the L0 every flip-flop holds while its D input is X, and every
// net with instants is overwritten from known inputs. The nets without
// instants are constant, known at reset. A schedule that can trip the
// settle guard settles like a Step instead, three-valued from reset: an
// X → known change past the guard is a failure that the one rail would
// hide.
//
// # Counting
//
// After the instructions run, one pass over every net's consecutive
// main slots counts its known→known transitions per lane, with the
// per-lane count bit-planes held in registers, and hands the net's
// totals to core.WideCounter.CountCycle: once per net per step, not
// once per change. The pass also moves each net's last slot into its
// entry slot, the settled value that ExportState and the next step
// read.
//
// On one rail every transition is between known levels, and the pass
// does less. A lane's rises minus its falls over a step equal its last
// value minus its entry value, so a net's rising total is
// (t + |last ∧ ¬entry| − |entry ∧ ¬last|) / 2, summed over the counted
// lanes, where t is its total: one popcount pair per net in place of
// one popcount per slot. A net with a single instant makes at most one
// transition per lane, each of them useful, so its counts are the
// popcounts of its changed lanes, without bit-planes.

import (
	"fmt"
	"math/bits"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// MaxLanes is the number of stimulus lanes one wide kernel advances per
// step: the machine word width.
const MaxLanes = logic.Lanes

// UniformDelay reports whether the delay model assigns one common delay
// to every connected output pin of every combinational cell of the
// netlist, and returns that delay. A netlist with no combinational
// outputs is trivially uniform with delay 1. It folds the model through
// the same delay.VisitOutputs walk as table construction — without
// compiling the netlist or building a table, so pure kernel prediction
// (Engine.SelectedKernel) neither hashes nor allocates — and thus can
// never disagree with DelayTable.Uniform about which pins a model is
// asked about.
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

// Delay-class names, the values KernelName returns. They predate the
// one wide kernel, which runs both classes: they name the delay class
// of a run, not a kernel.
const (
	classUniform = "wide-lockstep" // one common delay >= 1 on every output
	classMixed   = "wide-event"    // every other delay table
)

// delayClass names a delay table's class (see classUniform).
func delayClass(dt *DelayTable) string {
	if d, ok := dt.Uniform(); ok && d >= 1 {
		return classUniform
	}
	return classMixed
}

// WideKernel is the face of the word-parallel kernel that the
// measurement layer drives.
type WideKernel interface {
	// Step simulates one clock cycle for all lanes: pi holds, per primary
	// input, the packed per-lane stimulus bits (aligned with the
	// netlist's PIs).
	Step(pi []logic.W) error
	// Settle simulates one clock cycle like Step, for a cycle that no
	// counter observes (a warm-up step): it must not be called while a
	// counter is attached. It leaves the settled state and the cycle
	// count as Step would, and polls cancellation and budgets like it.
	// It computes each net's settled value alone and counts one word
	// event per net whose settled value changed in some lane (X → known
	// included); a run that can trip the settle guard settles like a
	// Step, events included. After an error the settled state is
	// unspecified: a budget stays exhausted and a cancellation stays, so
	// no later step succeeds.
	Settle(pi []logic.W) error
	// AttachWideMonitor makes c count subsequent cycles, replacing any
	// counter attached before.
	AttachWideMonitor(c *core.WideCounter)
	// Events returns the number of word events processed: one per net
	// and instant at which some lane of the net changed in a Step, under
	// every delay model and mode (a net that changes and changes back
	// within one instant of a zero-delay run makes none), and in a
	// Settle one per net whose settled value changed.
	Events() uint64
	// Cycle returns the number of completed cycles.
	Cycle() int
	// KernelName names the run's delay class: "wide-lockstep" for a
	// uniform delay >= 1, "wide-event" for every other delay table.
	KernelName() string
	// ExportState appends the kernel's packed net values to dst and
	// returns it. Valid only at a cycle boundary (between Step calls),
	// where the settled net values are the kernel's entire dynamic
	// state: nothing is in flight and flip-flop sampling state is
	// derivable from the Q nets. The measurement checkpoint layer
	// serializes this.
	ExportState(dst []logic.W) []logic.W
	// ImportState overwrites the kernel's net values with vals (length
	// NumNets) and sets the completed-cycle count, re-deriving all
	// internal caches. The next Step continues exactly as if the kernel
	// had simulated to that boundary itself.
	ImportState(vals []logic.W, cycle int)
	// Release hands the kernel's slots to the garbage collector. The
	// kernel must not be used afterwards; a second Release is a no-op,
	// and a kernel that is never released is simply collected.
	Release()
}

// NewWideKernel returns the word-parallel kernel for the options. It
// runs opts.Schedule, or a schedule built here when that is nil. Every
// delay model is word-parallel simulatable, so this cannot fail.
func NewWideKernel(c *Compiled, opts Options) WideKernel {
	opts.Delays = opts.delayTable(c)
	sc := opts.Schedule
	if sc == nil {
		sc = NewSchedule(c, opts)
	}
	return newScheduleKernel(c, sc, opts)
}

// scheduleKernel runs a Schedule for MaxLanes stimulus lanes at once.
// Like the scalar kernel it is not safe for concurrent use, but any
// number may share one Compiled netlist and one Schedule.
type scheduleKernel struct {
	c    *Compiled
	sc   *Schedule
	name string // the delay class KernelName reports

	// sl holds the slots, in the form form names (see the file
	// comment). Its zero rail is allocated when a three-valued step
	// first needs it (zeroRail); both rails are nil once released.
	sl   rails
	form form

	ffQ []logic.W // sampled Q, indexed like Compiled.dffCells

	counter *core.WideCounter // counts every settled cycle; nil counts nothing
	cycle   int
	events  uint64 // word events processed (each spans all lanes)

	poll pollState // periodic cancellation + budget check

	// high holds the count bit-planes above the fourth (see increment):
	// a lane making more than 15 transitions in a cycle. Zero between
	// nets.
	high [28]uint64
}

// form is the way a schedule kernel holds its slots.
type form uint8

const (
	// threeValued: both rails hold the slots. The flip-flop samples
	// are current.
	threeValued form = iota
	// oneRail: the one rail alone holds the slots, and no lane of any
	// entry slot is X. The zero rail, if allocated, and the flip-flop
	// samples are stale.
	oneRail
	// atReset: every entry slot holds its net's reset value
	// (Compiled.initVals), the one rail an X one as 0. The zero rail, if
	// allocated, is stale; the flip-flop samples are current.
	atReset
)

// newScheduleKernel returns a schedule kernel in the reset form, with
// its one rail alone and every flip-flop sampled at 0. opts.Delays must
// be set.
func newScheduleKernel(c *Compiled, sc *Schedule, opts Options) *scheduleKernel {
	if len(sc.slotStart) != c.n.NumNets()+1 {
		panic(fmt.Sprintf("sim: schedule of %d nets for netlist %q of %d", len(sc.slotStart)-1, c.n.Name, c.n.NumNets()))
	}
	s := &scheduleKernel{
		c:    c,
		sc:   sc,
		name: delayClass(opts.Delays),
		sl:   rails{one: make([]uint64, sc.Slots())},
		form: atReset,
		ffQ:  make([]logic.W, len(c.dffCells)),
	}
	s.poll.init(opts)
	for i := range s.ffQ {
		s.ffQ[i] = logic.SplatW(logic.L0)
	}
	for net, v := range c.initVals {
		s.sl.one[sc.slotStart[net]] = logic.SplatW(v).One
	}
	return s
}

// Release implements WideKernel.
func (s *scheduleKernel) Release() { s.sl = rails{} }

// AttachWideMonitor makes c count subsequent cycles. It replaces any
// counter attached before.
func (s *scheduleKernel) AttachWideMonitor(c *core.WideCounter) { s.counter = c }

// Cycle returns the number of completed cycles.
func (s *scheduleKernel) Cycle() int { return s.cycle }

// Events returns the total number of word events processed; each word
// event covers the lanes of one net at one instant.
func (s *scheduleKernel) Events() uint64 { return s.events }

// KernelName implements WideKernel.
func (s *scheduleKernel) KernelName() string { return s.name }

// checkWidth panics unless pi has one word per primary input.
//
//glitchsim:hotpath
func (s *scheduleKernel) checkWidth(pi []logic.W) {
	if len(pi) != len(s.c.n.PIs) {
		panic(fmt.Sprintf("sim: stimulus width %d, netlist has %d inputs", len(pi), len(s.c.n.PIs)))
	}
}

// Step simulates one clock cycle for all lanes. It runs the whole
// schedule, then polls cancellation and budgets once and checks the
// settle guard, before the step's counts reach the counter: a failed
// step leaves the counter and the settled state as the last completed
// step left them, and Events (and so BudgetError.Used) includes the
// whole failed step.
//
// In the one-rail form a stimulus with every lane known runs on
// stepBits. A stimulus word with an X lane, like any Step from the
// reset form, enters the three-valued form (widen), which fold leaves
// again once a step ends with no X lane.
//
//glitchsim:hotpath
func (s *scheduleKernel) Step(pi []logic.W) error {
	s.checkWidth(pi)
	if s.form != threeValued {
		if s.form == oneRail && known(pi) {
			return s.stepBits(pi)
		}
		s.widen()
	}
	if err := s.settled(s.inject(pi) + s.sc.run(s.sl, s.sc.all[:])); err != nil {
		return err
	}
	s.fold()
	s.endCycle()
	return nil
}

// stepBits is Step in the one-rail form, on a stimulus with every lane
// known.
//
//glitchsim:hotpath
func (s *scheduleKernel) stepBits(pi []logic.W) error {
	if err := s.settled(s.injectBits(pi) + s.sc.runBits(s.sl.one, s.sc.all[:])); err != nil {
		return err
	}
	s.foldBits()
	s.endCycle()
	return nil
}

// settled commits a step's word events, as its runs counted them or,
// when they cannot (Schedule.recount), as changes counts them, and
// checks the settle guard.
//
//glitchsim:hotpath
func (s *scheduleKernel) settled(events uint64) error {
	if s.sc.recount {
		events = s.changes()
	}
	if err := s.commit(events); err != nil {
		return err
	}
	if s.sc.CanFail() {
		return s.guard()
	}
	return nil
}

// Settle implements WideKernel. It runs each cell's last instructions
// alone (see Settling in the file comment), counts one word event per
// net whose settled value changed in some lane, and moves each net's
// last slot into its entry slot; it polls like Step. From the reset or
// one-rail form, a stimulus with every lane known runs on settleBits. A
// schedule that can trip the guard settles by Step.
//
//glitchsim:hotpath
func (s *scheduleKernel) Settle(pi []logic.W) error {
	if s.sc.CanFail() {
		return s.Step(pi)
	}
	s.checkWidth(pi)
	if s.form != threeValued {
		if known(pi) {
			return s.settleBits(pi)
		}
		s.widen()
	}
	r, start := s.sl, s.sc.slotStart
	s.inject(pi)
	s.sc.run(r, s.sc.last)
	var events uint64
	for net := 0; net+1 < len(start); net++ {
		events += nonzero(logic.DiffMask(at(r, start[net+1]-1), at(r, start[net])))
	}
	if err := s.commit(events); err != nil {
		return err
	}
	s.fold()
	s.cycle++
	return nil
}

// settleBits is Settle in the one-rail and reset forms, on a stimulus
// with every lane known. From the reset form it leaves every net known:
// a flip-flop whose D input is X at reset holds the 0 its X reads as,
// and every net with instants is computed from known inputs. A net
// whose reset value is X then counts as changed.
//
// It counts and moves in one pass, before the poll, so a Settle that
// fails has moved the state on; no later step can succeed then (see
// WideKernel.Settle).
//
//glitchsim:hotpath
func (s *scheduleKernel) settleBits(pi []logic.W) error {
	sl, start, init := s.sl.one, s.sc.slotStart, s.c.initVals
	reset := s.form == atReset
	s.injectBits(pi)
	s.sc.runBits(sl, s.sc.last)
	var events uint64
	for net := 0; net+1 < len(start); net++ {
		a, last := start[net], sl[start[net+1]-1]
		d := last ^ sl[a]
		if reset && init[net] == logic.X {
			d = 1
		}
		events += nonzero(d)
		sl[a] = last
	}
	s.form = oneRail
	if err := s.commit(events); err != nil {
		return err
	}
	s.cycle++
	return nil
}

// inject samples every flip-flop from its D input's entry slot and
// writes instant 0 of the primary inputs and flip-flop outputs, the slot
// after each entry slot, in the three-valued form. It returns their
// word events.
//
//glitchsim:hotpath
func (s *scheduleKernel) inject(pi []logic.W) uint64 {
	c, r, start := s.c, s.sl, s.sc.slotStart
	for i, d := range c.dffD {
		s.sample(i, at(r, start[d]))
	}
	var events uint64
	for i, id := range c.n.PIs {
		events += nonzero(logic.DiffMask(pi[i], at(r, start[id])))
		put(r, start[id]+1, pi[i])
	}
	for i, q := range c.dffQ {
		events += nonzero(logic.DiffMask(s.ffQ[i], at(r, start[q])))
		put(r, start[q]+1, s.ffQ[i])
	}
	return events
}

// sample applies the clock edge to flip-flop i whose D input settled at
// v, lane-wise: lanes with a known D take it, lanes still at X hold the
// flipflop's current state — the per-lane image of the scalar rule.
//
//glitchsim:hotpath
func (s *scheduleKernel) sample(i int, v logic.W) {
	k := v.Zero | v.One
	q := &s.ffQ[i]
	q.Zero = (v.Zero & k) | (q.Zero &^ k)
	q.One = (v.One & k) | (q.One &^ k)
}

// injectBits is inject in the one-rail forms. With no lane at X a
// flip-flop takes its D input's entry value in every lane, so the
// sample is that value itself.
//
//glitchsim:hotpath
func (s *scheduleKernel) injectBits(pi []logic.W) uint64 {
	c, sl, start := s.c, s.sl.one, s.sc.slotStart
	var events uint64
	for i, id := range c.n.PIs {
		a := start[id]
		events += nonzero(pi[i].One ^ sl[a])
		sl[a+1] = pi[i].One
	}
	for i, q := range c.dffQ {
		a, d := start[q], sl[start[c.dffD[i]]]
		events += nonzero(d ^ sl[a])
		sl[a+1] = d
	}
	return events
}

// commit adds a step's word events to the kernel's total and polls
// cancellation and budgets when due.
//
//glitchsim:hotpath
func (s *scheduleKernel) commit(events uint64) error {
	s.events += events
	if s.poll.due(s.events) {
		return s.poll.poll(s.events, s.cycle)
	}
	return nil
}

// changes counts the word events of a step whose program wrote batch
// slots (Schedule.recount): the main slots, primary inputs and
// flip-flop outputs included, that differ from their predecessor.
//
//glitchsim:hotpath
func (s *scheduleKernel) changes() uint64 {
	start := s.sc.slotStart
	var events uint64
	for net := 0; net+1 < len(start); net++ {
		for i := start[net] + 1; i < start[net+1]; i++ {
			events += nonzero(s.changed(i))
		}
	}
	return events
}

// changed returns the lanes in which slot i differs from slot i-1, in
// the kernel's form.
//
//glitchsim:hotpath
func (s *scheduleKernel) changed(i int32) uint64 {
	if s.form == oneRail {
		return s.sl.one[i] ^ s.sl.one[i-1]
	}
	return logic.DiffMask(at(s.sl, i), at(s.sl, i-1))
}

// guard returns the settle-guard failure of the step just run when one
// of its main slots past the guard changed (see The settle guard in
// schedule.go), naming the nets changed at the first such instant in
// net order, and nil otherwise.
func (s *scheduleKernel) guard() error {
	past := s.sc.past
	for i := range past {
		if s.changed(past[i].slot) == 0 {
			continue
		}
		var nets []netlist.NetID
		for _, p := range past[i:] {
			if p.at != past[i].at || len(nets) == maxHotNets {
				break
			}
			if s.changed(p.slot) != 0 {
				nets = append(nets, p.net)
			}
		}
		return newOscillationError(s.c.n, s.cycle, s.sc.guard, nets)
	}
	return nil
}

// known reports whether every lane of every word of ws holds a known
// level: exactly one of its rails set.
//
//glitchsim:hotpath
func known(ws []logic.W) bool {
	k := ^uint64(0)
	for _, w := range ws {
		k &= w.Zero ^ w.One
	}
	return k == ^uint64(0)
}

// zeroRail returns the zero rail, allocating it on first need: a kernel
// that never sees an X lane holds 8 bytes per slot.
func (s *scheduleKernel) zeroRail() []uint64 {
	if s.sl.zero == nil {
		s.sl.zero = make([]uint64, len(s.sl.one))
	}
	return s.sl.zero
}

// widen enters the three-valued form by rebuilding the zero rail of
// every entry slot: from the reset values in the reset form, as the one
// rail's complement in the one-rail form. The other slots need nothing,
// since a step writes each of them before reading it, and neither do
// the flip-flop samples: current in the reset form, and in the one-rail
// form replaced in every lane by the step's sampling from entry slots
// with every lane known.
func (s *scheduleKernel) widen() {
	zero, start := s.zeroRail(), s.sc.slotStart
	if s.form == atReset {
		for net, v := range s.c.initVals {
			zero[start[net]] = logic.SplatW(v).Zero
		}
	} else {
		for _, a := range start[:len(start)-1] {
			zero[a] = ^s.sl.one[a]
		}
	}
	s.form = threeValued
}

// endCycle classifies the settled cycle on the counter and counts it.
func (s *scheduleKernel) endCycle() {
	if s.counter != nil {
		s.counter.OnCycleEnd()
	}
	s.cycle++
}

// checkImport panics unless vals holds one value per net.
func (s *scheduleKernel) checkImport(vals []logic.W) {
	if nn := s.c.n.NumNets(); len(vals) != nn {
		panic(fmt.Sprintf("sim: imported state has %d nets, netlist has %d", len(vals), nn))
	}
}

// fold counts every net's transitions of the step on the attached
// counter and moves each net's last slot into its entry slot. It enters
// the one-rail form when every lane of every entry slot is then known.
//
//glitchsim:hotpath
func (s *scheduleKernel) fold() {
	zero, one, start := s.sl.zero, s.sl.one, s.sc.slotStart
	counter := s.counter
	var mask uint64
	if counter != nil {
		mask = counter.LaneMask()
	}
	k := ^uint64(0)
	for net := 0; net+1 < len(start); net++ {
		a, b := start[net], start[net+1]
		if b-a >= 2 { // a net without instants never changes
			if counter != nil {
				s.countNet(netlist.NetID(net), zero[a:b], one[a:b], mask)
			}
			zero[a], one[a] = zero[b-1], one[b-1]
		}
		k &= zero[a] ^ one[a]
	}
	if k == ^uint64(0) {
		s.form = oneRail
	}
}

// foldBits is fold in the one-rail form. A net of one instant makes at
// most one transition per lane, so its counts need no bit-planes: every
// transition is useful, and the changed lanes give the total and the
// rises.
//
//glitchsim:hotpath
func (s *scheduleKernel) foldBits() {
	sl, start := s.sl.one, s.sc.slotStart
	counter := s.counter
	var mask uint64
	if counter != nil {
		mask = counter.LaneMask()
	}
	for net := 0; net+1 < len(start); net++ {
		a, b := start[net], start[net+1]
		switch {
		case b-a < 2:
			continue // no instants: the net never changes
		case counter == nil:
		case b-a == 2:
			if m := (sl[a] ^ sl[a+1]) & mask; m != 0 {
				t := uint64(bits.OnesCount64(m))
				counter.CountCycle(netlist.NetID(net), t, uint64(bits.OnesCount64(m&sl[a+1])), t, 1)
			}
		default:
			s.countBits(netlist.NetID(net), sl[a:b], mask)
		}
		sl[a] = sl[b-1]
	}
}

// countNet counts one net's transitions over a step, from its entry
// slot through its last instant slot (zero and one are their rails), in
// the lanes of mask, and hands the totals to the counter. Transitions
// from or to X are not counted.
//
//glitchsim:hotpath
func (s *scheduleKernel) countNet(net netlist.NetID, zero, one []uint64, mask uint64) {
	var rise int
	var p0, p1, p2, p3 uint64
	high := 0
	pk, pv := zero[0]|one[0], one[0]
	for i := 1; i < len(one); i++ {
		k, v := zero[i]|one[i], one[i]
		m := pk & k & (pv ^ v) & mask
		pk, pv = k, v
		rise += bits.OnesCount64(m & v)
		p0, p1, p2, p3, high = s.increment(m, p0, p1, p2, p3, high)
	}
	if p0|p1|p2|p3 == 0 && high == 0 {
		return
	}
	t, most := s.tally(p0, p1, p2, p3, high)
	s.counter.CountCycle(net, t, uint64(rise), uint64(bits.OnesCount64(p0)), most)
}

// countBits is countNet in the one-rail form. It counts the rises
// without a popcount per instant: every lane is known, so a lane's rises
// minus its falls equal its last value minus its entry value, and the
// lane sum of the rises is (t + |last ∧ ¬entry| − |entry ∧ ¬last|) / 2
// over the counted lanes.
//
//glitchsim:hotpath
func (s *scheduleKernel) countBits(net netlist.NetID, vals []uint64, mask uint64) {
	var p0, p1, p2, p3 uint64
	high := 0
	prev := vals[0]
	for _, v := range vals[1:] {
		p0, p1, p2, p3, high = s.increment((prev^v)&mask, p0, p1, p2, p3, high)
		prev = v
	}
	if p0|p1|p2|p3 == 0 && high == 0 {
		return
	}
	t, most := s.tally(p0, p1, p2, p3, high)
	entry := vals[0]
	rise := t + uint64(bits.OnesCount64(prev&^entry&mask)) - uint64(bits.OnesCount64(entry&^prev&mask))
	s.counter.CountCycle(net, t, rise/2, uint64(bits.OnesCount64(p0)), most)
}

// increment adds one to the count of every lane in m. Each lane's count
// is a binary number in bit-planes (plane p holds bit p of every lane's
// count), incremented by one ripple-carry step. The four low planes
// p0–p3 live in the caller's registers; a lane makes at most one
// transition per instant, so only nets of more than 15 instants carry
// into the planes above, of which the first high are in use in s.high.
//
//glitchsim:hotpath
func (s *scheduleKernel) increment(m, p0, p1, p2, p3 uint64, high int) (uint64, uint64, uint64, uint64, int) {
	// No branch on m == 0: every step below is a no-op then, and most
	// instants change some lane.
	c := p0 & m
	p0 ^= m
	c, p1 = p1&c, p1^c
	c, p2 = p2&c, p2^c
	c, p3 = p3&c, p3^c
	for p := 0; c != 0; p++ {
		s.high[p], c = s.high[p]^c, s.high[p]&c
		high = max(high, p+1)
	}
	return p0, p1, p2, p3, high
}

// tally reads a net's counts off its bit-planes (see increment) and
// clears s.high: the lane sum of the counts, and the largest count,
// found by narrowing the candidate lanes plane by plane, from the
// highest down, to those with the plane's bit set, if any are.
//
//glitchsim:hotpath
func (s *scheduleKernel) tally(p0, p1, p2, p3 uint64, high int) (t uint64, most uint32) {
	t = uint64(bits.OnesCount64(p0) + 2*bits.OnesCount64(p1) + 4*bits.OnesCount64(p2) + 8*bits.OnesCount64(p3))
	cand := ^uint64(0)
	for p := high - 1; p >= 0; p-- {
		t += uint64(bits.OnesCount64(s.high[p])) << (p + 4)
		if c := cand & s.high[p]; c != 0 {
			cand = c
			most |= 16 << p
		}
		s.high[p] = 0
	}
	for i, p := range [4]uint64{p3, p2, p1, p0} {
		if c := cand & p; c != 0 {
			cand = c
			most |= 8 >> i
		}
	}
	return t, most
}

// ExportState implements WideKernel: the entry slots hold the settled
// net values, and ffQ[i] equals the entry slot of its Q net. In the
// one-rail form the zero rail is the one rail's complement, and in the
// reset form the values are the reset values.
func (s *scheduleKernel) ExportState(dst []logic.W) []logic.W {
	start := s.sc.slotStart
	for net, a := range start[:len(start)-1] {
		switch s.form {
		case atReset:
			dst = append(dst, logic.SplatW(s.c.initVals[net]))
		case oneRail:
			dst = append(dst, logic.W{Zero: ^s.sl.one[a], One: s.sl.one[a]})
		default:
			dst = append(dst, at(s.sl, a))
		}
	}
	return dst
}

// ImportState implements WideKernel: it writes the entry slots and
// re-derives the flip-flop samples from their Q nets. It takes the form
// vals allow: the reset form when they are the reset values (the
// warm-up's fast-forward imports what a kernel at reset exported), the
// one-rail form when every lane is known, and the three-valued form
// otherwise.
func (s *scheduleKernel) ImportState(vals []logic.W, cycle int) {
	s.checkImport(vals)
	for i, q := range s.c.dffQ {
		s.ffQ[i] = vals[q]
	}
	s.cycle = cycle
	start, reset := s.sc.slotStart, true
	for net, v := range vals {
		s.sl.one[start[net]] = v.One
		reset = reset && v == logic.SplatW(s.c.initVals[net])
	}
	switch {
	case reset:
		s.form = atReset
	case known(vals):
		s.form = oneRail
	default:
		zero := s.zeroRail()
		for net, v := range vals {
			zero[start[net]] = v.Zero
		}
		s.form = threeValued
	}
}
