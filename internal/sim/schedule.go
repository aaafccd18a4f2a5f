package sim

// The schedule kernel: a queue-free word-parallel kernel for
// transport-mode runs whose evaluated pins all have delay >= 1, and for
// inertial runs under a uniform delay, where the two modes coincide.
//
// # Potential-change sets
//
// In transport mode a cell output with delay d holds, at instant τ, the
// function of the cell's inputs at τ−d. So a net can change only at the
// instants of its potential-change set PC(n): the sums of pin delays
// along paths from a primary input or a flip-flop output, which change
// at instant 0 alone. This is the PC-set method of compiled unit-delay
// simulation (Maurer & Wang, "Techniques for unit-delay compiled
// simulation", DAC 1990); it carries over unchanged to any positive
// integer delays.
//
// A Schedule holds, per net, one value slot for the value the net
// enters a step with (its entry slot) followed by one slot per instant
// of PC(n), ascending. It holds one instruction per (cell, instant τ in
// the union of its inputs' PC sets), sorted by instant and then by
// topological order. An instruction reads the slots holding its inputs'
// values at τ and writes the slots holding its outputs' values at τ plus
// each pin's delay. Every delay is at least 1, so an instruction reads
// only slots that instructions of earlier instants wrote.
//
// # Per-lane equivalence
//
// The event kernels evaluate a cell only at instants where an input
// changed, and schedule an output only where it differs. Evaluating a
// cell at an instant where no input changed reproduces the value its
// output already holds, so the slots hold exactly the values the event
// kernels give each net, at the same instants. A net's transitions are
// the differences between its consecutive slots, and its word events
// the slots that differ from their predecessor, so Events matches the
// event kernels' count as well.
//
// # Counting
//
// After the instructions run, one pass over every net's consecutive
// slots counts its known→known transitions per lane, with the per-lane
// count bit-planes held in registers, and hands the net's totals to
// core.WideCounter.CountCycle: once per net per step, not once per
// change. The pass also moves each net's last slot into its entry slot,
// the settled value that ExportState and the next step read.

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// slotIndex is the integer type a program indexes slots by: uint16 while
// every index fits, which halves the instructions of the registry's
// circuits (12 bytes instead of 24), and int32 beyond.
type slotIndex interface{ ~uint16 | ~int32 }

// instr evaluates one cell at one instant τ of a Schedule: it reads the
// slot holding each input's value at τ and writes the slot holding each
// connected output's value at τ plus the pin's delay.
type instr[I slotIndex] struct {
	op netlist.CellType
	n  uint8 // input count; 4 stands for any count above three
	// in holds the input slots. A cell with more than three inputs keeps
	// its first two here, and in[2] indexes program.extra, which holds
	// the number of further inputs followed by their slots.
	in  [3]I
	out [2]I // output slots; program.none for an unconnected pin
}

// program is a schedule's instruction list in one index width.
type program[I slotIndex] struct {
	instrs []instr[I]
	extra  []I // further input slots of cells with more than three inputs
	none   I   // ^I(0), the output slot of an unconnected pin
}

// Schedule is the static form of a transport-mode wide run on one
// compiled netlist under one delay table: value slots per (net,
// instant) and the instructions that fill them (see the file comment).
// A Schedule is immutable and may be shared by any number of kernels
// running the netlist, and by every netlist with the same Fingerprint,
// under a delay table with the same Digest.
type Schedule struct {
	// slotStart[n] is net n's entry slot; the slots up to
	// slotStart[n+1] hold its value at each instant of PC(n).
	slotStart []int32
	// One of the two holds the instructions: narrow when every slot
	// index and extra offset fits in 16 bits.
	narrow program[uint16]
	wide   program[int32]
}

// NewSchedule builds the schedule of c under dt. It panics unless every
// output pin of a cell that has inputs has delay >= 1
// (DelayTable.MinEvaluated), and on instants beyond MaxInt32.
func NewSchedule(c *Compiled, dt *DelayTable) *Schedule { return newSchedule(c, dt, true) }

// newSchedule is NewSchedule, with 16-bit slot indices only when narrow
// allows them.
func newSchedule(c *Compiled, dt *DelayTable, narrow bool) *Schedule {
	if dt.MinEvaluated() < 1 {
		panic("sim: a schedule needs every evaluated pin's delay >= 1")
	}
	n := c.n
	nn := n.NumNets()
	order := n.TopoOrder()

	// 1. Potential-change sets in topological order, stored flat: net
	// n's set is pcs[pcAt[n] : pcAt[n]+pcLen[n]]. Primary inputs and
	// flip-flop outputs change at instant 0 alone and share entry 0.
	pcAt := make([]int32, nn)
	pcLen := make([]int32, nn)
	pcs := make([]int32, 1, 8*nn)
	for _, id := range n.PIs {
		pcLen[id] = 1
	}
	for _, q := range c.dffQ {
		pcLen[q] = 1
	}
	pcOf := func(net netlist.NetID) []int32 { return pcs[pcAt[net] : pcAt[net]+pcLen[net]] }
	var emitters []emitCell // the cells that get instructions, in topological order
	var u, tmp []int32
	last, total, maxIn, extra := int32(-1), 0, 0, 0
	for _, cid := range order {
		if c.cellType[cid] == netlist.DFF {
			continue
		}
		ins := c.inNets[c.inStart[cid]:c.inStart[cid+1]]
		u = u[:0]
		for _, in := range ins {
			tmp = unionSorted(tmp[:0], u, pcOf(in))
			u, tmp = tmp, u
		}
		if len(u) == 0 {
			continue // constant, or fed by constants alone: never changes
		}
		first := len(emitters)
		for pin := range int(c.outLen[cid]) {
			key := outputsPerCell*int(cid) + pin
			o := c.outNets[key]
			if o == netlist.NoNet {
				continue
			}
			d := dt.delays[key]
			if int64(u[len(u)-1])+int64(d) > math.MaxInt32 {
				panic(fmt.Sprintf("sim: instant of net %s beyond MaxInt32", n.Nets[o].Name))
			}
			pcAt[o], pcLen[o] = int32(len(pcs)), int32(len(u))
			for _, t := range u {
				pcs = append(pcs, t+d)
			}
			if len(emitters) == first {
				emitters = append(emitters, emitCell{cid, o, d})
			}
		}
		if len(emitters) > first {
			last = max(last, u[len(u)-1])
			total += len(u)
			maxIn = max(maxIn, len(ins))
			if len(ins) > 3 {
				extra += len(u) * (len(ins) - 1)
			}
		}
	}

	// 2. Slots: per net, the entry slot and one per instant.
	sc := &Schedule{slotStart: make([]int32, nn+1)}
	for i := range nn {
		sc.slotStart[i+1] = sc.slotStart[i] + 1 + pcLen[i]
	}

	// 3. Instructions: count them per instant, then emit.
	at := make([]int32, last+2)
	for _, e := range emitters {
		for _, t := range pcOf(e.o) {
			at[t-e.d+1]++
		}
	}
	for t := 1; t < len(at); t++ {
		at[t] += at[t-1]
	}
	b := emission{c: c, pcs: pcs, pcAt: pcAt, pcLen: pcLen, slotStart: sc.slotStart, at: at, maxIn: maxIn, cells: emitters}
	if narrow && sc.Slots() < math.MaxUint16 && extra < math.MaxUint16 {
		sc.narrow = emit[uint16](&b, total, extra)
	} else {
		sc.wide = emit[int32](&b, total, extra)
	}
	return sc
}

// emitCell is a cell that gets instructions, with its first connected
// output and that pin's delay: the cell's instants are that output's
// potential-change set shifted back by it.
type emitCell struct {
	cid netlist.CellID
	o   netlist.NetID
	d   int32
}

// emission is what NewSchedule hands emit: the potential-change sets
// (net n's is pcs[pcAt[n] : pcAt[n]+pcLen[n]]), the slot layout, the
// first instruction index of every instant (advanced as emit fills
// them), and the cells to emit in topological order.
type emission struct {
	c                *Compiled
	pcs, pcAt, pcLen []int32
	slotStart, at    []int32
	maxIn            int
	cells            []emitCell
}

// emit fills a program of total instructions and extra further-input
// entries, bucketed by instant; cells are visited in topological order,
// so each bucket comes out in that order.
func emit[I slotIndex](b *emission, total, extra int) program[I] {
	c := b.c
	pcOf := func(net netlist.NetID) []int32 { return b.pcs[b.pcAt[net] : b.pcAt[net]+b.pcLen[net]] }
	p := program[I]{instrs: make([]instr[I], total), extra: make([]I, 0, extra), none: ^I(0)}
	// Per input of the current cell: its set, its entry slot, and how
	// many of its instants lie at or before the current instant.
	sets := make([][]int32, b.maxIn)
	base := make([]int32, b.maxIn)
	next := make([]int32, b.maxIn)
	for _, e := range b.cells {
		cid := e.cid
		ins := c.inNets[c.inStart[cid]:c.inStart[cid+1]]
		for i, net := range ins {
			sets[i], base[i], next[i] = pcOf(net), b.slotStart[net], 0
		}
		out := [outputsPerCell]int32{-1, -1}
		for pin := range int(c.outLen[cid]) {
			if o := c.outNets[outputsPerCell*int(cid)+pin]; o != netlist.NoNet {
				out[pin] = b.slotStart[o] + 1
			}
		}
		op, arity := c.cellType[cid], uint8(min(len(ins), 4))
		for j, t := range pcOf(e.o) {
			t -= e.d
			in := &p.instrs[b.at[t]]
			b.at[t]++
			in.op, in.n = op, arity
			for i := range ins {
				k, set := next[i], sets[i]
				for int(k) < len(set) && set[k] <= t {
					k++
				}
				next[i] = k
				slot := I(base[i] + k)
				switch {
				case i < 2 || len(ins) == 3:
					in.in[i] = slot
				case i == 2:
					in.in[2] = I(len(p.extra))
					p.extra = append(p.extra, I(len(ins)-2), slot)
				default:
					p.extra = append(p.extra, slot)
				}
			}
			for pin, o := range out {
				in.out[pin] = p.none
				if o >= 0 {
					in.out[pin] = I(o + int32(j))
				}
			}
		}
	}
	return p
}

// unionSorted appends the sorted union of the ascending sets a and b to
// dst, which must not share memory with either.
func unionSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Bytes returns the memory the schedule holds: the unit of the Engine's
// schedule-cache bound.
func (sc *Schedule) Bytes() int {
	return int(unsafe.Sizeof(*sc)) + 4*cap(sc.slotStart) + sc.narrow.bytes() + sc.wide.bytes()
}

func (p *program[I]) bytes() int {
	var i I
	return int(unsafe.Sizeof(instr[I]{}))*cap(p.instrs) + int(unsafe.Sizeof(i))*cap(p.extra)
}

// Slots returns the number of value slots a kernel running the schedule
// holds: one per net plus one per (net, instant of its PC set).
func (sc *Schedule) Slots() int { return int(sc.slotStart[len(sc.slotStart)-1]) }

// Instructions returns the number of (cell, instant) evaluations per step.
func (sc *Schedule) Instructions() int { return len(sc.narrow.instrs) + len(sc.wide.instrs) }

// Instants returns |PC(net)|: the number of instants per step at which
// the net can change, which bounds its transitions per lane and cycle.
func (sc *Schedule) Instants(net netlist.NetID) int {
	return int(sc.slotStart[net+1] - sc.slotStart[net] - 1)
}

// run executes the instructions on the slots and returns how many
// output slots differ from their predecessor: the step's word events on
// combinational nets.
//
//glitchsim:hotpath
func (sc *Schedule) run(sl []logic.W) uint64 {
	if sc.narrow.instrs != nil {
		return runProgram(&sc.narrow, sl)
	}
	return runProgram(&sc.wide, sl)
}

//glitchsim:hotpath
func runProgram[I slotIndex](p *program[I], sl []logic.W) uint64 {
	var events uint64
	extra, none := p.extra, p.none
	for i := range p.instrs {
		in := &p.instrs[i]
		var o0, o1 logic.W
		switch in.op {
		case netlist.FA:
			o0, o1 = logic.FullAddW(sl[in.in[0]], sl[in.in[1]], sl[in.in[2]])
		case netlist.HA:
			o0, o1 = logic.HalfAddW(sl[in.in[0]], sl[in.in[1]])
		case netlist.And:
			o0 = andSlots(sl, in, extra)
		case netlist.Nand:
			o0 = logic.NotW(andSlots(sl, in, extra))
		case netlist.Or:
			o0 = orSlots(sl, in, extra)
		case netlist.Nor:
			o0 = logic.NotW(orSlots(sl, in, extra))
		case netlist.Xor:
			o0 = xorSlots(sl, in, extra)
		case netlist.Xnor:
			o0 = logic.NotW(xorSlots(sl, in, extra))
		case netlist.Not:
			o0 = logic.NotW(sl[in.in[0]])
		case netlist.Buf:
			o0 = sl[in.in[0]]
		case netlist.Mux2:
			o0 = logic.MuxW(sl[in.in[2]], sl[in.in[0]], sl[in.in[1]])
		case netlist.Maj3:
			o0 = logic.Maj3W(sl[in.in[0]], sl[in.in[1]], sl[in.in[2]])
		default:
			// Constant cells have no inputs and so no instants; DFFs
			// are never scheduled.
			panic("sim: schedule instruction on a cell type without a case")
		}
		if o := in.out[0]; o != none {
			events += changed(o0, sl[o-1])
			sl[o] = o0
		}
		if o := in.out[1]; o != none {
			events += changed(o1, sl[o-1])
			sl[o] = o1
		}
	}
	return events
}

// changed returns 1 when a and b differ in some lane and 0 otherwise,
// without a branch.
//
//glitchsim:hotpath
func changed(a, b logic.W) uint64 {
	d := logic.DiffMask(a, b)
	return (d | -d) >> 63
}

// moreInputs returns the slots of a wide cell's inputs after its first
// two.
//
//glitchsim:hotpath
func moreInputs[I slotIndex](in *instr[I], extra []I) []I {
	at := int(in.in[2])
	return extra[at+1 : at+1+int(extra[at])]
}

//glitchsim:hotpath
func andSlots[I slotIndex](sl []logic.W, in *instr[I], extra []I) logic.W {
	r := logic.AndW(sl[in.in[0]], sl[in.in[1]])
	switch in.n {
	case 3:
		r = logic.AndW(r, sl[in.in[2]])
	case 4:
		for _, s := range moreInputs(in, extra) {
			r = logic.AndW(r, sl[s])
		}
	}
	return r
}

//glitchsim:hotpath
func orSlots[I slotIndex](sl []logic.W, in *instr[I], extra []I) logic.W {
	r := logic.OrW(sl[in.in[0]], sl[in.in[1]])
	switch in.n {
	case 3:
		r = logic.OrW(r, sl[in.in[2]])
	case 4:
		for _, s := range moreInputs(in, extra) {
			r = logic.OrW(r, sl[s])
		}
	}
	return r
}

//glitchsim:hotpath
func xorSlots[I slotIndex](sl []logic.W, in *instr[I], extra []I) logic.W {
	r := logic.XorW(sl[in.in[0]], sl[in.in[1]])
	switch in.n {
	case 3:
		r = logic.XorW(r, sl[in.in[2]])
	case 4:
		for _, s := range moreInputs(in, extra) {
			r = logic.XorW(r, sl[s])
		}
	}
	return r
}

// scheduleKernel runs a Schedule for MaxLanes stimulus lanes at once.
// Like the other kernels it is not safe for concurrent use, but any
// number may share one Compiled netlist and one Schedule.
type scheduleKernel struct {
	wideCore
	sc    *Schedule
	slots []logic.W // see Schedule; nil once released

	// high holds countNet's count bit-planes above the fourth: a lane
	// making more than 15 transitions in a cycle. Zero between nets.
	high [28]uint64
}

// newScheduleKernel returns the reset state of a schedule kernel: every
// entry slot at its net's reset value. opts.Delays must be set.
func newScheduleKernel(c *Compiled, sc *Schedule, opts Options) *scheduleKernel {
	if len(sc.slotStart) != c.n.NumNets()+1 {
		panic(fmt.Sprintf("sim: schedule of %d nets for netlist %q of %d", len(sc.slotStart)-1, c.n.Name, c.n.NumNets()))
	}
	s := &scheduleKernel{wideCore: newWideCore(c, opts), sc: sc, slots: make([]logic.W, sc.Slots())}
	for i, v := range c.initVals {
		s.slots[sc.slotStart[i]] = logic.SplatW(v)
	}
	return s
}

// Release implements WideKernel.
func (s *scheduleKernel) Release() { s.slots = nil }

// Step simulates one clock cycle for all lanes. It runs the whole
// schedule, then polls cancellation and budgets once, before the step's
// counts reach the counter: a tripped step leaves the counter and the
// settled state as the last completed step left them, and Events (and
// so BudgetError.Used) includes the whole tripped step. No Step can
// trip the settle guard (see Options.Scheduled).
//
//glitchsim:hotpath
func (s *scheduleKernel) Step(pi []logic.W) error {
	s.checkWidth(pi)
	c, sl, start := s.c, s.slots, s.sc.slotStart

	// 1. Sample DFF D inputs from their entry slots.
	for i, d := range c.dffD {
		s.sample(i, sl[start[d]])
	}

	// 2. Inject PI changes and DFF Q updates at instant 0, the slot
	// after each entry slot.
	var events uint64
	for i, id := range c.n.PIs {
		events += changed(pi[i], sl[start[id]])
		sl[start[id]+1] = pi[i]
	}
	for i, q := range c.dffQ {
		events += changed(s.ffQ[i], sl[start[q]])
		sl[start[q]+1] = s.ffQ[i]
	}

	// 3. Propagate.
	events += s.sc.run(sl)
	s.events += events
	if s.poll.due(s.events) {
		if err := s.poll.poll(s.events, s.cycle); err != nil {
			return err
		}
	}

	// 4. Count and settle.
	s.settle()
	s.endCycle()
	return nil
}

// settle counts every net's transitions of the step on the attached
// counter and moves each net's last slot into its entry slot.
//
//glitchsim:hotpath
func (s *scheduleKernel) settle() {
	sl, start := s.slots, s.sc.slotStart
	counter := s.counter
	var mask uint64
	if counter != nil {
		mask = counter.LaneMask()
	}
	for net := 0; net+1 < len(start); net++ {
		a, b := start[net], start[net+1]
		if b-a < 2 {
			continue // no instants: the net never changes
		}
		if counter != nil {
			s.countNet(netlist.NetID(net), sl[a:b], mask)
		}
		sl[a] = sl[b-1]
	}
}

// countNet counts one net's transitions over a step, from its entry
// slot through its last instant slot, in the lanes of mask, and hands
// the totals to the counter. Each lane's count is a binary number in
// bit-planes (plane p holds bit p of every lane's count), incremented
// by one ripple-carry step per instant. The four low planes live in
// registers; a lane makes at most one transition per instant, so only
// nets of more than 15 instants can carry into the planes above, kept
// in s.high.
//
//glitchsim:hotpath
func (s *scheduleKernel) countNet(net netlist.NetID, vals []logic.W, mask uint64) {
	var rise int
	var p0, p1, p2, p3 uint64
	high := 0 // planes of s.high in use
	prev := vals[0]
	for _, cur := range vals[1:] {
		// No branch on m == 0: every step below is a no-op then, and most
		// instants change some lane.
		m := prev.KnownMask() & cur.KnownMask() & (prev.One ^ cur.One) & mask
		prev = cur
		rise += bits.OnesCount64(m & cur.One)
		c := p0 & m
		p0 ^= m
		c, p1 = p1&c, p1^c
		c, p2 = p2&c, p2^c
		c, p3 = p3&c, p3^c
		for p := 0; c != 0; p++ {
			s.high[p], c = s.high[p]^c, s.high[p]&c
			high = max(high, p+1)
		}
	}
	if p0|p1|p2|p3 == 0 && high == 0 {
		return
	}
	// The lane sum of the counts, and the largest count: narrow the
	// candidate lanes plane by plane, from the highest down, to those
	// with the plane's bit set, if any are.
	t := bits.OnesCount64(p0) + 2*bits.OnesCount64(p1) + 4*bits.OnesCount64(p2) + 8*bits.OnesCount64(p3)
	cand, most := ^uint64(0), uint32(0)
	for p := high - 1; p >= 0; p-- {
		t += bits.OnesCount64(s.high[p]) << (p + 4)
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
	s.counter.CountCycle(net, uint64(t), uint64(rise), uint64(bits.OnesCount64(p0)), most)
}

// ExportState implements WideKernel: the entry slots hold the settled
// net values, and ffQ[i] equals the entry slot of its Q net.
func (s *scheduleKernel) ExportState(dst []logic.W) []logic.W {
	start := s.sc.slotStart
	for net := 0; net+1 < len(start); net++ {
		dst = append(dst, s.slots[start[net]])
	}
	return dst
}

// ImportState implements WideKernel: it writes the entry slots and
// re-derives the flip-flop samples from their Q nets.
func (s *scheduleKernel) ImportState(vals []logic.W, cycle int) {
	s.checkImport(vals)
	for net, v := range vals {
		s.slots[s.sc.slotStart[net]] = v
	}
	for i, q := range s.c.dffQ {
		s.ffQ[i] = vals[q]
	}
	s.cycle = cycle
}
