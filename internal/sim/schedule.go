package sim

// The schedule: the static form of a word-parallel run, which the wide
// kernel (wide.go) executes with no event queue, under every delay model
// and in both delay modes.
//
// # Potential-change sets
//
// In transport mode a cell output with delay d holds, at instant τ, the
// function of the cell's inputs at τ−d. So a net can change only at the
// instants of its potential-change set PC(n): the sums of pin delays
// along paths from a primary input or a flip-flop output, which change
// at instant 0 alone. This is the PC-set method of compiled unit-delay
// simulation (Maurer & Wang, "Techniques for unit-delay compiled
// simulation", DAC 1990); it carries over unchanged to any non-negative
// integer delays once zero delays are given batches (below).
//
// A Schedule holds, per net, one value slot for the value the net
// enters a step with (its entry slot) followed by one slot per instant
// of PC(n), ascending: the net's value at the end of that instant. It
// holds one instruction per (cell, point of the union of its inputs'
// sets), sorted by point: an instruction reads the slots holding its
// inputs' values at that point and writes the slots holding its
// outputs' values at the points its pins' delays give.
//
// # Batches
//
// Inside one instant the scalar kernel runs its events in batches: a
// zero-delay output changes one batch after its input did. So a point
// is a key (instant, batch). Primary inputs and flip-flop outputs have
// the single key (0, 0), and a cell's evaluation keys are the union of
// its inputs' keys. An output pin with delay d >= 1 gets one key
// (e+d, 0) per instant e of that union, from its inputs' final values
// at e (that instant's last key); a pin with delay 0 gets one key
// (e, k+1) per key (e, k), from its inputs at keys up to (e, k). A
// schedule without zero-delay pins has batch 0 everywhere. A net's last
// key of each instant is its main slot, counted and read by the kernel
// as above; its earlier keys of the instant hold the batches between
// and live in a batch area of their own, after every net's main slots.
//
// The program is bucketed by key, and an instruction of key (e, k)
// reads only slots written in earlier buckets, so the order inside a
// bucket is free.
//
// # Inertial windows
//
// In inertial mode the scalar kernel cancels an output's event when the
// cell is evaluated again before the event lands, and evaluates the
// cell whenever an input changes, in any batch. Per lane, an output
// with delay d >= 2 therefore takes its value at e+d as in transport
// mode, unless some input has a key at an instant strictly inside
// (e, e+d) that differs from the input's previous key: then it keeps
// its previous value. A zero-width pulse counts, since each of its
// batches evaluates the cell. Those keys are known statically, so such
// an instruction carries them (its window) and holds the lanes where any
// of them changed. Its program position is after the last batch of
// instant e+d−1: the window's keys are then final, and no reader of the
// output has run yet. A window that is empty needs no hold. Pins with
// delay <= 1 have no window, and under a uniform delay no window holds
// a key, so both modes coincide there.
//
// # The settle guard
//
// A step fails when some net changes past the settle guard G. The first
// such change comes from an evaluation at or before G: an evaluation
// after G sees an input that changed past G, an earlier failure. So the
// schedule evaluates nothing after G, sizes nothing by an instant
// beyond it, and keeps the main slots past G (their instants may exceed
// MaxInt32) in a list sorted by instant. A step whose run changed one of
// them fails, and reports the nets changed at the first such instant. A
// window past G is cut at G: a key beyond it that changed is a failure
// by itself.
//
// # Settling
//
// A warm-up step only brings the registers to the state the recent
// inputs set, and no counter observes it, so only each net's settled
// value matters. Settle computes it alone: it runs each cell's last
// instructions only, the ones at the last key of the cell's union. At
// that key every input already holds its final value, no window holds
// a key, and the instructions write each output's last slot. Running
// the last instructions in program order evaluates the netlist once, in
// dependency order. Each bucket ends with its last instructions, and
// the Schedule records their spans (Schedule.last) instead of a second
// program.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// slotIndex is the integer type a program indexes slots by: uint16 while
// every index fits, which halves the instructions of the registry's
// circuits (12 bytes instead of 24), and int32 beyond.
type slotIndex interface{ ~uint16 | ~int32 }

// instr evaluates one cell at one key of a Schedule: it reads the slot
// holding each input's value at the key and writes the slot holding
// each connected output's value at the key its pin's delay gives.
type instr[I slotIndex] struct {
	op netlist.CellType
	n  uint8 // input count; 4 stands for any count above three
	// in holds the input slots. A cell with more than three inputs keeps
	// its first two here, and in[2] indexes program.extra, which holds
	// the number of further inputs followed by their slots. An
	// instruction of op opHold keeps the index of its window in
	// program.extra, the first scratch slot and the window's length in
	// pairs.
	in  [3]I
	out [2]I // output slots; ^I(0) for an unconnected pin
}

// opHold marks an instruction that holds an inertial output (see
// Inertial windows): the instruction before it evaluated the cell into
// two scratch slots, and this one writes each output in out the new
// value in the lanes where no slot of its window changed, and the
// output's previous value elsewhere. A window is a list of pairs in
// program.extra: (lo, hi) with lo < hi compares each slot in [lo, hi)
// with the one before it, and (a, b) with a > b compares the two. It is
// no cell type, so the runners reach it through their default case and
// a transport program pays nothing for it.
const opHold = netlist.CellType(math.MaxUint8)

// program is a schedule's instruction list in one index width.
type program[I slotIndex] struct {
	instrs []instr[I]
	// extra holds the further input slots of cells with more than three
	// inputs, and the windows.
	extra []I
}

// Schedule is the static form of a wide run on one compiled netlist
// under one delay table, delay mode and settle guard: value slots per
// (net, key) and the instructions that fill them (see the file
// comment). A Schedule is immutable and may be shared by any number of
// kernels running the netlist, and by every netlist with the same
// Fingerprint, under Options with the same ScheduleKey.
type Schedule struct {
	// slotStart[n] is net n's entry slot; the slots up to
	// slotStart[n+1] hold its value at the end of each instant of its
	// keys. The batch and scratch slots follow, up to slots.
	slotStart []int32
	slots     int32
	// One of the two holds the instructions: narrow when every slot
	// index, extra offset and hold fits in 16 bits.
	narrow program[uint16]
	wide   program[int32]
	// all spans the whole program; last spans the instructions that are
	// their cells' last (see Settling), as [start, end) index pairs in
	// program order, one per run of consecutive ones.
	all  [2]int32
	last []int32
	// holds lists the program indices of the instructions of op
	// opHold, ascending.
	holds []int32
	// recount is set when the program writes batch or scratch slots:
	// its runners' event counts then mean nothing, and a step counts its
	// events over the main slots instead.
	recount bool
	// past holds the main slots past the guard, by instant and net; nil
	// when there are none, and no step can fail.
	past  []pastSlot
	guard int
}

// pastSlot is a main slot past the settle guard: the value of net at
// instant at.
type pastSlot struct {
	at   uint64
	net  netlist.NetID
	slot int32
}

// NewSchedule builds the schedule of c under opts: its delay table
// (opts.Delays, or one built from opts.Delay), its Mode and its settle
// guard (MaxTimePerCycle). It panics on an evaluation instant beyond
// MaxInt32, which only a guard beyond MaxInt32 allows.
func NewSchedule(c *Compiled, opts Options) *Schedule { return newSchedule(c, opts, true) }

// key is a point (instant, batch) of a schedule, with the instant in the
// high 32 bits and the batch in the low 32, so that keys order as the
// pairs do. Every instant fits: evaluations lie at or before MaxInt32,
// and no delay exceeds it.
type key uint64

// keyAt returns the key of batch 0 at instant t.
func keyAt(t uint64) key { return key(t << 32) }

// instant returns k's instant.
func (k key) instant() uint64 { return uint64(k) >> 32 }

// batch returns k's batch.
func (k key) batch() int32 { return int32(uint32(k)) }

// newSchedule is NewSchedule, with 16-bit slot indices only when narrow
// allows them.
func newSchedule(c *Compiled, opts Options, narrow bool) *Schedule {
	dt := opts.delayTable(c)
	guard := uint64(max(opts.guardTime(), 0))
	inertial := opts.inertial(dt)
	n := c.n
	nn := n.NumNets()

	// 1. Key sets in topological order, stored flat: net n's keys are
	// pcs[pcAt[n] : pcAt[n]+pcLen[n]], of which the first pcLive[n] lie
	// at or before the guard, at pcInst[n] distinct instants. Primary
	// inputs and flip-flop outputs have key (0, 0) alone and share entry
	// 0.
	pcAt, pcLen, pcLive, pcInst := make([]int32, nn), make([]int32, nn), make([]int32, nn), make([]int32, nn)
	for _, id := range n.PIs {
		pcLen[id], pcLive[id], pcInst[id] = 1, 1, 1
	}
	for _, q := range c.dffQ {
		pcLen[q], pcLive[q], pcInst[q] = 1, 1, 1
	}
	b := emission{c: c, pcs: make([]key, 1, 8*nn), pcAt: pcAt, pcLen: pcLen, delays: dt.delays, guard: guard,
		cells: make([]emitCell, 0, n.NumCells())}
	var u, tmp []key
	var last uint64 // the last instant an instruction is placed at
	held := false
	for _, cid := range n.TopoOrder() {
		if c.cellType[cid] == netlist.DFF {
			continue
		}
		ins := c.inNets[c.inStart[cid]:c.inStart[cid+1]]
		u = u[:0]
		for _, in := range ins {
			tmp = unionSorted(tmp[:0], u, b.pcs[pcAt[in]:pcAt[in]+pcLive[in]])
			u, tmp = tmp, u
		}
		if len(u) == 0 {
			continue // constant, or fed by constants alone: never changes
		}
		end := u[len(u)-1].instant()
		if end > math.MaxInt32 {
			panic(fmt.Sprintf("sim: evaluation instant of cell %s beyond MaxInt32", n.Cells[cid].Name))
		}
		instants := int32(0)
		for j, k := range u {
			if j+1 == len(u) || u[j+1].instant() != k.instant() {
				instants++
			}
		}
		e := emitCell{cid: cid, at: int32(len(b.keys)), n: int32(len(u))}
		for pin := range int(c.outLen[cid]) {
			ix := outputsPerCell*int(cid) + pin
			o := c.outNets[ix]
			if o == netlist.NoNet {
				continue
			}
			d := uint64(dt.delays[ix])
			pcAt[o], pcInst[o] = int32(len(b.pcs)), instants
			if d == 0 {
				for _, k := range u {
					b.pcs = append(b.pcs, k+1)
				}
				pcLive[o] = int32(len(u))
				e.zero = true
			} else {
				prev := ^uint64(0)
				for _, k := range u {
					if t := k.instant(); t != prev {
						prev = t
						b.pcs = append(b.pcs, keyAt(t+d))
						if t+d <= guard {
							pcLive[o]++
						}
					}
				}
				if inertial && d >= 2 {
					e.held[pin] = d
					held = true
					last = max(last, min(end+d-1, guard))
				} else {
					e.pos = true
				}
			}
			pcLen[o] = int32(len(b.pcs)) - pcAt[o]
		}
		if e.zero || e.pos || e.held != [outputsPerCell]uint64{} {
			b.keys = append(b.keys, u...)
			b.cells = append(b.cells, e)
			b.maxIn = max(b.maxIn, len(ins))
			last = max(last, end)
		}
	}

	// 2. Slots: per net, the entry slot and one per instant; then the
	// batch slots, per net; then two scratch slots for the windows.
	sc := &Schedule{slotStart: make([]int32, nn+1), guard: opts.guardTime()}
	for i := range nn {
		sc.slotStart[i+1] = sc.slotStart[i] + 1 + pcInst[i]
	}
	b.slotStart = sc.slotStart
	sc.slots = sc.slotStart[nn]
	b.batchAt = make([]int32, nn)
	for i := range nn {
		b.batchAt[i] = sc.slots
		sc.slots += pcLen[i] - pcInst[i]
	}
	sc.recount = sc.slots > sc.slotStart[nn]
	b.scratch = sc.slots
	if held {
		sc.slots += outputsPerCell
	}
	for net := range nn {
		for q := pcLive[net]; q < pcLen[net]; q++ {
			// Past the guard only pins with delay >= 1 write, and their
			// nets have main slots alone.
			sc.past = append(sc.past, pastSlot{at: b.pcs[pcAt[net]+q].instant(), net: netlist.NetID(net), slot: sc.slotStart[net] + 1 + q})
		}
	}
	slices.SortStableFunc(sc.past, func(a, b pastSlot) int { return cmp.Compare(a.at, b.at) })

	// 3. Buckets: per instant, one per batch and, when a window may
	// hold, one after them for the inertial pins; bucket (x, k) is
	// base[x]+k and instant x's inertial bucket base[x+1]-1. Count the
	// instructions per bucket, then emit. Each bucket ends with the
	// instructions that are their cells' last, so that they form one span
	// per bucket (see Settling).
	b.base = make([]int32, last+2)
	for _, k := range b.keys {
		x := k.instant()
		b.base[x+1] = max(b.base[x+1], k.batch()) // the largest batch
	}
	for x := range last + 1 {
		b.base[x+1] += b.base[x] + 1
		if held {
			b.base[x+1]++
		}
	}
	b.at = make([]int32, b.base[last+1]+1)
	b.lastAt = make([]int32, b.base[last+1])
	total, extra, holds := 0, 0, 0
	for _, e := range b.cells {
		more := int(c.inStart[e.cid+1]-c.inStart[e.cid]) - 1 // extra entries per instruction
		if more < 3 {
			more = 0
		}
		u := b.keys[e.at : e.at+e.n]
		groups := e.groups()
		for j, k := range u {
			x := k.instant()
			final := j+1 == len(u)
			endOfInstant := final || u[j+1].instant() != x
			if e.zero || e.pos && endOfInstant {
				bucket := b.base[x] + k.batch()
				b.at[bucket+1]++
				if final {
					b.lastAt[bucket]++
				}
				total++
				extra += more
			}
			if endOfInstant {
				for _, d := range groups {
					// The window holds a key when the union's next instant
					// comes before x+d; then an opHold follows.
					n := int32(1)
					if !final && u[j+1].instant() < x+d {
						n++
						holds++
					}
					bucket := b.holdBucket(x, d)
					b.at[bucket+1] += n
					if final {
						b.lastAt[bucket] += n
					}
					total += int(n)
					extra += more
				}
			}
		}
	}
	for i := 1; i < len(b.at); i++ {
		b.at[i] += b.at[i-1]
	}
	for bucket, n := range b.lastAt {
		lo, hi := b.at[bucket+1]-n, b.at[bucket+1]
		b.lastAt[bucket] = lo
		switch k := len(sc.last); {
		case n == 0:
		case k > 0 && sc.last[k-1] == lo:
			sc.last[k-1] = hi
		default:
			sc.last = append(sc.last, lo, hi)
		}
	}
	sc.all = [2]int32{0, int32(total)}
	sc.recount = sc.recount || holds > 0
	switch {
	case !narrow || sc.slots >= math.MaxUint16 || extra >= math.MaxUint16:
		sc.wide = emit[int32](&b, total, extra)
	case holds == 0:
		sc.narrow = emit[uint16](&b, total, extra)
	default:
		// The windows' size is known once emitted.
		sc.wide = emit[int32](&b, total, extra)
		if len(sc.wide.extra) < math.MaxUint16 {
			sc.narrow = narrowed(sc.wide)
			sc.wide = program[int32]{}
		}
	}
	if holds > 0 {
		sc.holds = make([]int32, 0, holds)
		for i, in := range sc.wide.instrs {
			if in.op == opHold {
				sc.holds = append(sc.holds, int32(i))
			}
		}
		for i, in := range sc.narrow.instrs {
			if in.op == opHold {
				sc.holds = append(sc.holds, int32(i))
			}
		}
	}
	return sc
}

// narrowed returns p with 16-bit indices; each must fit.
func narrowed(p program[int32]) program[uint16] {
	q := program[uint16]{instrs: make([]instr[uint16], len(p.instrs)), extra: make([]uint16, len(p.extra))}
	for i, in := range p.instrs {
		q.instrs[i] = instr[uint16]{op: in.op, n: in.n,
			in:  [3]uint16{uint16(in.in[0]), uint16(in.in[1]), uint16(in.in[2])},
			out: [2]uint16{uint16(in.out[0]), uint16(in.out[1])}}
	}
	for i, x := range p.extra {
		q.extra[i] = uint16(x)
	}
	return q
}

// emitCell is a cell that gets instructions: its evaluation keys, the
// emission's keys[at : at+n], and which kinds of pins it drives: one of
// delay 0 (zero), one of delay >= 1 without a window (pos), and, per
// pin, the delay of an inertial pin with a window (held), 0 for none.
type emitCell struct {
	cid       netlist.CellID
	at, n     int32
	zero, pos bool
	held      [outputsPerCell]uint64
}

// groups returns the delays of the cell's inertial instructions per
// evaluated instant: one per distinct delay of its held pins.
func (e *emitCell) groups() []uint64 {
	switch d := e.held; {
	case d[0] == 0 && d[1] == 0:
		return nil
	case d[0] == 0 || d[0] == d[1]:
		return e.held[1:]
	case d[1] == 0:
		return e.held[:1]
	default:
		return e.held[:]
	}
}

// emission is what newSchedule hands emit: the key sets (net n's are
// pcs[pcAt[n] : pcAt[n]+pcLen[n]]), the cells' evaluation keys, the
// slot layout (batchAt[n] is net n's first batch slot), the bucket
// bases, the index of every bucket's first instruction and of its first
// last instruction (both advanced as emit fills them), and the cells to
// emit in topological order.
type emission struct {
	c                  *Compiled
	pcs, keys          []key
	pcAt, pcLen        []int32
	delays             []int32
	guard              uint64
	slotStart, batchAt []int32
	scratch            int32
	base, at, lastAt   []int32
	maxIn              int
	cells              []emitCell
}

// holdBucket returns the bucket of an inertial pin of delay d evaluated
// at instant x: instant x+d−1's last one, or the guard's.
func (b *emission) holdBucket(x, d uint64) int32 { return b.base[min(x+d-1, b.guard)+1] - 1 }

// cursor walks one input's keys, pcs[next:end] of the emission, as emit
// walks its cell's evaluation keys: the keys before next lie at or
// before the current one, slot holds the input's value there, and main
// and batch are the slots of the input's next main and batch key. It
// holds no pointer, so that filling one costs no write barrier.
type cursor struct {
	next, end         int32
	slot, main, batch int32
}

// advance moves w past the keys at or before k.
func (w *cursor) advance(pcs []key, k key) {
	for w.next < w.end && pcs[w.next] <= k {
		w.slot = w.step(pcs)
	}
}

// step moves w past the key at next and returns its slot: a main slot
// when it is its instant's last key, a batch slot otherwise.
func (w *cursor) step(pcs []key) int32 {
	q := w.next
	w.next++
	if w.next < w.end && pcs[w.next].instant() == pcs[q].instant() {
		w.batch++
		return w.batch - 1
	}
	w.main++
	return w.main - 1
}

// emit fills a program of total instructions and extra further-input
// entries, bucketed by key, each bucket ending with the instructions
// that are their cells' last; cells are visited in topological order,
// so both parts of a bucket come out in that order.
func emit[I slotIndex](b *emission, total, extra int) program[I] {
	c := b.c
	p := program[I]{instrs: make([]instr[I], total), extra: make([]I, 0, extra)}
	in := make([]cursor, b.maxIn)
	for _, e := range b.cells {
		cid := e.cid
		ins := c.inNets[c.inStart[cid]:c.inStart[cid+1]]
		for i, net := range ins {
			in[i] = cursor{next: b.pcAt[net], end: b.pcAt[net] + b.pcLen[net], slot: b.slotStart[net], main: b.slotStart[net] + 1, batch: b.batchAt[net]}
		}
		// Per output pin of the cell's own instructions: its first main
		// slot, written at each instant's last key, and for a pin of
		// delay 0 its first batch slot, written at the other keys; -1
		// for none.
		main, batch := [outputsPerCell]int32{-1, -1}, [outputsPerCell]int32{-1, -1}
		for pin := range outputsPerCell {
			ix := outputsPerCell*int(cid) + pin
			if o := c.outNets[ix]; o != netlist.NoNet && e.held[pin] == 0 {
				main[pin] = b.slotStart[o] + 1
				if b.delays[ix] == 0 {
					batch[pin] = b.batchAt[o]
				}
			}
		}
		op, arity := c.cellType[cid], uint8(min(len(ins), 4))
		groups := e.groups()
		u := b.keys[e.at : e.at+e.n]
		// inst ranks the current key among the union's instants, and bat
		// among its keys that are not their instant's last.
		inst, bat := int32(0), int32(0)
		for j, k := range u {
			x := k.instant()
			final := j+1 == len(u)
			endOfInstant := final || u[j+1].instant() != x
			for i := range ins {
				in[i].advance(b.pcs, k)
			}
			if e.zero || e.pos && endOfInstant {
				ip := place(b, b.base[x]+k.batch(), final, p.instrs)
				setInputs(&p, ip, op, arity, in[:len(ins)])
				for pin := range ip.out {
					switch {
					case endOfInstant && main[pin] >= 0:
						ip.out[pin] = I(main[pin] + inst)
					case batch[pin] >= 0:
						ip.out[pin] = I(batch[pin] + bat)
					default:
						ip.out[pin] = ^I(0)
					}
				}
			}
			if !endOfInstant {
				bat++
				continue
			}
			for _, d := range groups {
				var out [outputsPerCell]I
				for pin := range out {
					out[pin] = ^I(0)
					if e.held[pin] == d {
						out[pin] = I(b.slotStart[c.outNets[outputsPerCell*int(cid)+pin]] + 1 + inst)
					}
				}
				bucket := b.holdBucket(x, d)
				ip := place(b, bucket, final, p.instrs)
				setInputs(&p, ip, op, arity, in[:len(ins)])
				ip.out = out
				lo := I(len(p.extra))
				p.extra = appendWindow(p.extra, b, in[:len(ins)], x+d)
				if hi := I(len(p.extra)); hi > lo {
					// Evaluate into the scratch slots, then hold.
					for pin, o := range out {
						if o != ^I(0) {
							ip.out[pin] = I(b.scratch) + I(pin)
						}
					}
					*place(b, bucket, final, p.instrs) = instr[I]{op: opHold, in: [3]I{lo, I(b.scratch), (hi - lo) / 2}, out: out}
				}
			}
			inst++
		}
	}
	return p
}

// place returns the next free instruction of bucket: the next of its
// last ones when final.
func place[I slotIndex](b *emission, bucket int32, final bool, instrs []instr[I]) *instr[I] {
	pos := &b.at[bucket]
	if final {
		pos = &b.lastAt[bucket]
	}
	*pos++
	return &instrs[*pos-1]
}

// setInputs sets ip, an instruction of p, to evaluate a cell of type op
// and arity on the slots the cursors stand at.
func setInputs[I slotIndex](p *program[I], ip *instr[I], op netlist.CellType, arity uint8, in []cursor) {
	ip.op, ip.n = op, arity
	for i := range in {
		slot := I(in[i].slot)
		switch {
		case i < 2 || len(in) == 3:
			ip.in[i] = slot
		case i == 2:
			ip.in[2] = I(len(p.extra))
			p.extra = append(p.extra, I(len(in)-2), slot)
		default:
			p.extra = append(p.extra, slot)
		}
	}
}

// appendWindow appends to dst, as pairs (see opHold), the window of an
// inertial pin evaluated at the instant the cursors stand at, whose
// output lands at instant end: per input, its keys at later instants
// before end and at or before the guard, each against the key before it.
// (The cursors stand past every key of the instant: the union holds
// each input's keys up to the guard.) Consecutive slots form one range.
func appendWindow[I slotIndex](dst []I, b *emission, in []cursor, end uint64) []I {
	lim := min(end, b.guard+1)
	start := len(dst)
	for _, w := range in { // copies: the cell's cursors stay put
		prev := w.slot
		for w.next < w.end && b.pcs[w.next].instant() < lim {
			s := w.step(b.pcs)
			switch k := len(dst); {
			case prev != s-1:
				dst = append(dst, I(max(s, prev)), I(min(s, prev)))
			case k > start && dst[k-2] < dst[k-1] && dst[k-1] == I(s):
				dst[k-1]++
			default:
				dst = append(dst, I(s), I(s+1))
			}
			prev = s
		}
	}
	return dst
}

// unionSorted appends the sorted union of the ascending sets a and b to
// dst, which must not share memory with either.
func unionSorted(dst, a, b []key) []key {
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
	return int(unsafe.Sizeof(*sc)) + 4*(cap(sc.slotStart)+cap(sc.last)+cap(sc.holds)) + int(unsafe.Sizeof(pastSlot{}))*cap(sc.past) +
		sc.narrow.bytes() + sc.wide.bytes()
}

func (p *program[I]) bytes() int {
	var i I
	return int(unsafe.Sizeof(instr[I]{}))*cap(p.instrs) + int(unsafe.Sizeof(i))*cap(p.extra)
}

// Slots returns the number of value slots a kernel running the schedule
// holds: one per net plus one per (net, instant of its keys), then one
// per key that is not its instant's last, and two scratch slots when a
// window may hold.
func (sc *Schedule) Slots() int { return int(sc.slots) }

// CanFail reports whether a step on the schedule can fail with an
// *OscillationError: whether some net has an instant past the settle
// guard. Whether a step does then depends on its stimulus and state.
func (sc *Schedule) CanFail() bool { return sc.past != nil }

// Instructions returns the number of evaluations per step.
func (sc *Schedule) Instructions() int { return len(sc.narrow.instrs) + len(sc.wide.instrs) }

// Instants returns the number of instants per step at which the net can
// change, which bounds its transitions per lane and cycle.
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
// many main output slots differ from their predecessor. Over sc.all
// that is the step's word events on combinational nets, unless
// sc.recount; over sc.last the predecessors were not written, and the
// count means nothing.
//
//glitchsim:hotpath
func (sc *Schedule) run(r rails, spans []int32) uint64 {
	var events uint64
	holds := sc.holds
	for i := 0; i+1 < len(spans); i += 2 {
		lo, hi := spans[i], spans[i+1]
		for ; len(holds) > 0 && holds[0] < hi; holds = holds[1:] {
			if h := holds[0]; h >= lo {
				events += sc.runRange(r, lo, h)
				if sc.narrow.instrs != nil {
					runHold(&sc.narrow.instrs[h], sc.narrow.extra, r)
				} else {
					runHold(&sc.wide.instrs[h], sc.wide.extra, r)
				}
				lo = h + 1
			}
		}
		events += sc.runRange(r, lo, hi)
	}
	return events
}

// runRange is run on the instructions [lo, hi), none of op opHold.
//
//glitchsim:hotpath
func (sc *Schedule) runRange(r rails, lo, hi int32) uint64 {
	if sc.narrow.instrs != nil {
		return runProgram(sc.narrow.instrs[lo:hi], sc.narrow.extra, r)
	}
	return runProgram(sc.wide.instrs[lo:hi], sc.wide.extra, r)
}

// runBits is run on slots in the one-rail forms: sl holds each slot's
// lanes as plain bits, none of them X.
//
//glitchsim:hotpath
func (sc *Schedule) runBits(sl []uint64, spans []int32) uint64 {
	var events uint64
	holds := sc.holds
	for i := 0; i+1 < len(spans); i += 2 {
		lo, hi := spans[i], spans[i+1]
		for ; len(holds) > 0 && holds[0] < hi; holds = holds[1:] {
			if h := holds[0]; h >= lo {
				events += sc.runRangeBits(sl, lo, h)
				if sc.narrow.instrs != nil {
					runHoldBits(&sc.narrow.instrs[h], sc.narrow.extra, sl)
				} else {
					runHoldBits(&sc.wide.instrs[h], sc.wide.extra, sl)
				}
				lo = h + 1
			}
		}
		events += sc.runRangeBits(sl, lo, hi)
	}
	return events
}

// runRangeBits is runRange in the one-rail forms.
//
//glitchsim:hotpath
func (sc *Schedule) runRangeBits(sl []uint64, lo, hi int32) uint64 {
	if sc.narrow.instrs != nil {
		return runBits(sc.narrow.instrs[lo:hi], sc.narrow.extra, sl)
	}
	return runBits(sc.wide.instrs[lo:hi], sc.wide.extra, sl)
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
			// Constant cells have no inputs and so no keys, DFFs are
			// never scheduled, and run executes opHold itself.
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

// runHold executes an instruction of op opHold (see there). Its
// outputs' events are counted by Schedule.recount's pass.
//
//glitchsim:hotpath
func runHold[I slotIndex](in *instr[I], extra []I, r rails) {
	w := extra[in.in[0] : in.in[0]+2*in.in[2]]
	var m uint64
	for i := 0; i+1 < len(w); i += 2 {
		if lo, hi := w[i], w[i+1]; lo > hi {
			m |= logic.DiffMask(at(r, lo), at(r, hi))
		} else {
			for s := lo; s < hi; s++ {
				m |= logic.DiffMask(at(r, s), at(r, s-1))
			}
		}
	}
	for pin, o := range in.out {
		if o != ^I(0) {
			put(r, o, at(r, in.in[1]+I(pin)).Merge(at(r, o-1), m))
		}
	}
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

// runHoldBits is runHold in the one-rail forms.
//
//glitchsim:hotpath
func runHoldBits[I slotIndex](in *instr[I], extra []I, sl []uint64) {
	w := extra[in.in[0] : in.in[0]+2*in.in[2]]
	var m uint64
	for i := 0; i+1 < len(w); i += 2 {
		if lo, hi := w[i], w[i+1]; lo > hi {
			m |= sl[lo] ^ sl[hi]
		} else {
			for s := lo; s < hi; s++ {
				m |= sl[s] ^ sl[s-1]
			}
		}
	}
	for pin, o := range in.out {
		if o != ^I(0) {
			sl[o] = sl[in.in[1]+I(pin)]&^m | sl[o-1]&m
		}
	}
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
