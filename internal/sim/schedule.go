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
// the slots that differ from their predecessor, so a Step's events match
// the event kernels' count as well.
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
// A warm-up step only brings the registers to the state the recent
// inputs set, and no counter observes it, so only each net's settled
// value matters. Settle computes it alone: it runs each cell's last
// instruction only, the one at the last instant τ of the union of its
// inputs' potential-change sets. At τ every input already holds its
// last value, and the instruction writes each output's last slot (τ
// plus the pin's delay). Its reads come from instants ≤ τ−1, so running
// the last instructions in program order evaluates the netlist once, in
// dependency order.
//
// The order of the instructions inside one instant is free, since an
// instruction at τ reads only slots written at earlier instants. So
// each instant of the program ends with its last instructions, and the
// Schedule records their spans (Schedule.last) instead of a second
// program.
//
// A Settle counts one word event per net whose settled value changed
// in some lane, X → known included; from the reset form it compares
// against the reset values. From reset with a known stimulus it runs on
// the one rail, where an X entry value reads as 0: that is also the L0
// every flip-flop holds while its D input is X, and every net with
// instants is overwritten from known inputs. The nets without instants
// are constant, known at reset.
//
// # Counting
//
// After the instructions run, one pass over every net's consecutive
// slots counts its known→known transitions per lane, with the per-lane
// count bit-planes held in registers, and hands the net's totals to
// core.WideCounter.CountCycle: once per net per step, not once per
// change. The pass also moves each net's last slot into its entry slot,
// the settled value that ExportState and the next step read.
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
	out [2]I // output slots; ^I(0) for an unconnected pin
}

// program is a schedule's instruction list in one index width.
type program[I slotIndex] struct {
	instrs []instr[I]
	extra  []I // further input slots of cells with more than three inputs
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
	// all spans the whole program; last spans the instructions that are
	// their cells' last (see Settling), as [start, end) index pairs in
	// program order, one per run of consecutive ones.
	all  [2]int32
	last []int32
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

	// 3. Instructions: count them per instant, then emit. Each instant
	// ends with the instructions that are their cells' last, so that
	// they form one span per instant (see Settling).
	at := make([]int32, last+2)
	lastAt := make([]int32, last+1)
	for _, e := range emitters {
		pc := pcOf(e.o)
		for _, t := range pc {
			at[t-e.d+1]++
		}
		lastAt[pc[len(pc)-1]-e.d]++
	}
	for t := 1; t < len(at); t++ {
		at[t] += at[t-1]
	}
	for t, n := range lastAt {
		lo, hi := at[t+1]-n, at[t+1]
		lastAt[t] = lo
		switch k := len(sc.last); {
		case n == 0:
		case k > 0 && sc.last[k-1] == lo:
			sc.last[k-1] = hi
		default:
			sc.last = append(sc.last, lo, hi)
		}
	}
	sc.all = [2]int32{0, int32(total)}
	b := emission{c: c, pcs: pcs, pcAt: pcAt, pcLen: pcLen, slotStart: sc.slotStart, at: at, lastAt: lastAt, maxIn: maxIn, cells: emitters}
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
// index of every instant's first instruction and of its first last
// instruction (both advanced as emit fills them), and the cells to emit
// in topological order.
type emission struct {
	c                     *Compiled
	pcs, pcAt, pcLen      []int32
	slotStart, at, lastAt []int32
	maxIn                 int
	cells                 []emitCell
}

// emit fills a program of total instructions and extra further-input
// entries, bucketed by instant, each bucket ending with the
// instructions that are their cells' last; cells are visited in
// topological order, so both parts of a bucket come out in that order.
func emit[I slotIndex](b *emission, total, extra int) program[I] {
	c := b.c
	pcOf := func(net netlist.NetID) []int32 { return b.pcs[b.pcAt[net] : b.pcAt[net]+b.pcLen[net]] }
	p := program[I]{instrs: make([]instr[I], total), extra: make([]I, 0, extra)}
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
		pc := pcOf(e.o)
		for j, t := range pc {
			t -= e.d
			pos := &b.at[t]
			if j == len(pc)-1 {
				pos = &b.lastAt[t]
			}
			in := &p.instrs[*pos]
			*pos++
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
				in.out[pin] = ^I(0)
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
	return int(unsafe.Sizeof(*sc)) + 4*(cap(sc.slotStart)+cap(sc.last)) + sc.narrow.bytes() + sc.wide.bytes()
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

// rails are the slots in the three-valued form: logic.W's two rails in
// two arrays, so that lane l of slot i is 0 when bit l of zero[i] is
// set, 1 when bit l of one[i] is, and X when neither is. The one-rail
// forms keep only one (see scheduleKernel).
type rails struct{ zero, one []uint64 }

// at returns slot i's value.
//
//glitchsim:hotpath
func at[I slotIndex](r rails, i I) logic.W { return logic.W{Zero: r.zero[i], One: r.one[i]} }

// put stores w into slot i.
//
//glitchsim:hotpath
func put[I slotIndex](r rails, i I, w logic.W) { r.zero[i], r.one[i] = w.Zero, w.One }

// run executes the instructions of spans ([start, end) index pairs:
// sc.all or sc.last) on slots in the three-valued form and returns how
// many output slots differ from their predecessor. Over sc.all that is
// the step's word events on combinational nets; over sc.last the
// predecessors were not written, and the count means nothing.
//
//glitchsim:hotpath
func (sc *Schedule) run(r rails, spans []int32) uint64 {
	var events uint64
	for i := 0; i+1 < len(spans); i += 2 {
		if sc.narrow.instrs != nil {
			events += runProgram(sc.narrow.instrs[spans[i]:spans[i+1]], sc.narrow.extra, r)
		} else {
			events += runProgram(sc.wide.instrs[spans[i]:spans[i+1]], sc.wide.extra, r)
		}
	}
	return events
}

// runBits is run on slots in the one-rail forms: sl holds each slot's
// lanes as plain bits, none of them X.
//
//glitchsim:hotpath
func (sc *Schedule) runBits(sl []uint64, spans []int32) uint64 {
	var events uint64
	for i := 0; i+1 < len(spans); i += 2 {
		if sc.narrow.instrs != nil {
			events += runBits(sc.narrow.instrs[spans[i]:spans[i+1]], sc.narrow.extra, sl)
		} else {
			events += runBits(sc.wide.instrs[spans[i]:spans[i+1]], sc.wide.extra, sl)
		}
	}
	return events
}

//glitchsim:hotpath
func runProgram[I slotIndex](instrs []instr[I], extra []I, r rails) uint64 {
	var events uint64
	for i := range instrs {
		in := &instrs[i]
		var o0, o1 logic.W
		switch in.op {
		case netlist.FA:
			o0, o1 = logic.FullAddW(at(r, in.in[0]), at(r, in.in[1]), at(r, in.in[2]))
		case netlist.HA:
			o0, o1 = logic.HalfAddW(at(r, in.in[0]), at(r, in.in[1]))
		case netlist.And:
			o0 = andSlots(r, in, extra)
		case netlist.Nand:
			o0 = logic.NotW(andSlots(r, in, extra))
		case netlist.Or:
			o0 = orSlots(r, in, extra)
		case netlist.Nor:
			o0 = logic.NotW(orSlots(r, in, extra))
		case netlist.Xor:
			o0 = xorSlots(r, in, extra)
		case netlist.Xnor:
			o0 = logic.NotW(xorSlots(r, in, extra))
		case netlist.Not:
			o0 = logic.NotW(at(r, in.in[0]))
		case netlist.Buf:
			o0 = at(r, in.in[0])
		case netlist.Mux2:
			o0 = logic.MuxW(at(r, in.in[2]), at(r, in.in[0]), at(r, in.in[1]))
		case netlist.Maj3:
			o0 = logic.Maj3W(at(r, in.in[0]), at(r, in.in[1]), at(r, in.in[2]))
		default:
			// Constant cells have no inputs and so no instants; DFFs
			// are never scheduled.
			panic("sim: schedule instruction on a cell type without a case")
		}
		if o := in.out[0]; o != ^I(0) {
			events += nonzero(logic.DiffMask(o0, at(r, o-1)))
			put(r, o, o0)
		}
		if o := in.out[1]; o != ^I(0) {
			events += nonzero(logic.DiffMask(o1, at(r, o-1)))
			put(r, o, o1)
		}
	}
	return events
}

// runBits is runProgram's Boolean image, case by case: with no lane at
// X each cell is its two-valued function of one word per input.
//
//glitchsim:hotpath
func runBits[I slotIndex](instrs []instr[I], extra []I, sl []uint64) uint64 {
	var events uint64
	for i := range instrs {
		in := &instrs[i]
		var o0, o1 uint64
		switch in.op {
		case netlist.FA:
			a, b, c := sl[in.in[0]], sl[in.in[1]], sl[in.in[2]]
			x := a ^ b
			o0, o1 = x^c, a&b|c&x
		case netlist.HA:
			a, b := sl[in.in[0]], sl[in.in[1]]
			o0, o1 = a^b, a&b
		case netlist.And:
			o0 = andBits(sl, in, extra)
		case netlist.Nand:
			o0 = ^andBits(sl, in, extra)
		case netlist.Or:
			o0 = orBits(sl, in, extra)
		case netlist.Nor:
			o0 = ^orBits(sl, in, extra)
		case netlist.Xor:
			o0 = xorBits(sl, in, extra)
		case netlist.Xnor:
			o0 = ^xorBits(sl, in, extra)
		case netlist.Not:
			o0 = ^sl[in.in[0]]
		case netlist.Buf:
			o0 = sl[in.in[0]]
		case netlist.Mux2:
			sel := sl[in.in[2]]
			o0 = sl[in.in[0]]&^sel | sl[in.in[1]]&sel
		case netlist.Maj3:
			a, b, c := sl[in.in[0]], sl[in.in[1]], sl[in.in[2]]
			o0 = a&b | c&(a^b)
		default:
			panic("sim: schedule instruction on a cell type without a case")
		}
		if o := in.out[0]; o != ^I(0) {
			events += nonzero(o0 ^ sl[o-1])
			sl[o] = o0
		}
		if o := in.out[1]; o != ^I(0) {
			events += nonzero(o1 ^ sl[o-1])
			sl[o] = o1
		}
	}
	return events
}

// nonzero returns 1 when some bit of d is set and 0 otherwise, without
// a branch: given a lane difference mask, whether a word changed.
//
//glitchsim:hotpath
func nonzero(d uint64) uint64 { return (d | -d) >> 63 }

// moreInputs returns the slots of a wide cell's inputs after its first
// two.
//
//glitchsim:hotpath
func moreInputs[I slotIndex](in *instr[I], extra []I) []I {
	at := int(in.in[2])
	return extra[at+1 : at+1+int(extra[at])]
}

//glitchsim:hotpath
func andSlots[I slotIndex](r rails, in *instr[I], extra []I) logic.W {
	w := logic.AndW(at(r, in.in[0]), at(r, in.in[1]))
	switch in.n {
	case 3:
		w = logic.AndW(w, at(r, in.in[2]))
	case 4:
		for _, s := range moreInputs(in, extra) {
			w = logic.AndW(w, at(r, s))
		}
	}
	return w
}

//glitchsim:hotpath
func orSlots[I slotIndex](r rails, in *instr[I], extra []I) logic.W {
	w := logic.OrW(at(r, in.in[0]), at(r, in.in[1]))
	switch in.n {
	case 3:
		w = logic.OrW(w, at(r, in.in[2]))
	case 4:
		for _, s := range moreInputs(in, extra) {
			w = logic.OrW(w, at(r, s))
		}
	}
	return w
}

//glitchsim:hotpath
func xorSlots[I slotIndex](r rails, in *instr[I], extra []I) logic.W {
	w := logic.XorW(at(r, in.in[0]), at(r, in.in[1]))
	switch in.n {
	case 3:
		w = logic.XorW(w, at(r, in.in[2]))
	case 4:
		for _, s := range moreInputs(in, extra) {
			w = logic.XorW(w, at(r, s))
		}
	}
	return w
}

//glitchsim:hotpath
func andBits[I slotIndex](sl []uint64, in *instr[I], extra []I) uint64 {
	w := sl[in.in[0]] & sl[in.in[1]]
	switch in.n {
	case 3:
		w &= sl[in.in[2]]
	case 4:
		for _, s := range moreInputs(in, extra) {
			w &= sl[s]
		}
	}
	return w
}

//glitchsim:hotpath
func orBits[I slotIndex](sl []uint64, in *instr[I], extra []I) uint64 {
	w := sl[in.in[0]] | sl[in.in[1]]
	switch in.n {
	case 3:
		w |= sl[in.in[2]]
	case 4:
		for _, s := range moreInputs(in, extra) {
			w |= sl[s]
		}
	}
	return w
}

//glitchsim:hotpath
func xorBits[I slotIndex](sl []uint64, in *instr[I], extra []I) uint64 {
	w := sl[in.in[0]] ^ sl[in.in[1]]
	switch in.n {
	case 3:
		w ^= sl[in.in[2]]
	case 4:
		for _, s := range moreInputs(in, extra) {
			w ^= sl[s]
		}
	}
	return w
}

// scheduleKernel runs a Schedule for MaxLanes stimulus lanes at once.
// Like the other kernels it is not safe for concurrent use, but any
// number may share one Compiled netlist and one Schedule.
type scheduleKernel struct {
	wideCore
	sc *Schedule
	// sl holds the slots, in the form form names (see the file
	// comment). Its zero rail is allocated when a three-valued step
	// first needs it (zeroRail); both rails are nil once released.
	sl   rails
	form form

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
// its one rail alone. opts.Delays must be set.
func newScheduleKernel(c *Compiled, sc *Schedule, opts Options) *scheduleKernel {
	if len(sc.slotStart) != c.n.NumNets()+1 {
		panic(fmt.Sprintf("sim: schedule of %d nets for netlist %q of %d", len(sc.slotStart)-1, c.n.Name, c.n.NumNets()))
	}
	s := &scheduleKernel{wideCore: newWideCore(c, opts), sc: sc, sl: rails{one: make([]uint64, sc.Slots())}, form: atReset}
	for net, v := range c.initVals {
		s.sl.one[sc.slotStart[net]] = logic.SplatW(v).One
	}
	return s
}

// Release implements WideKernel.
func (s *scheduleKernel) Release() { s.sl = rails{} }

// Step simulates one clock cycle for all lanes. It runs the whole
// schedule, then polls cancellation and budgets once, before the step's
// counts reach the counter: a tripped step leaves the counter and the
// settled state as the last completed step left them, and Events (and
// so BudgetError.Used) includes the whole tripped step. No Step can
// trip the settle guard (see Options.Scheduled).
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
	events := s.inject(pi)
	if err := s.commit(events + s.sc.run(s.sl, s.sc.all[:])); err != nil {
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
	events := s.injectBits(pi)
	if err := s.commit(events + s.sc.runBits(s.sl.one, s.sc.all[:])); err != nil {
		return err
	}
	s.foldBits()
	s.endCycle()
	return nil
}

// Settle implements WideKernel. It runs each cell's last instruction
// alone (see Settling in the file comment), counts one word event per
// net whose settled value changed in some lane, and moves each net's
// last slot into its entry slot; it polls like Step. From the reset or
// one-rail form, a stimulus with every lane known runs on settleBits.
//
//glitchsim:hotpath
func (s *scheduleKernel) Settle(pi []logic.W) error {
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
// rail's complement in the one-rail form. The instant slots need
// nothing, since a step writes each of them before reading it, and
// neither do the flip-flop samples: current in the reset form, and in
// the one-rail form replaced in every lane by the step's sampling from
// entry slots with every lane known.
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
