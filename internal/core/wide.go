package core

// WideCounter: transition counting with parity evaluation for the
// word-parallel kernels. Where Counter tallies one lane, WideCounter
// classifies all 64 lanes of a wide simulation at once and produces
// statistics bit-identical to 64 scalar Counters merged in lane order.
// The event-driven wide kernel in internal/sim calls Change for every
// net it commits and OnCycleEnd once each cycle has settled; the
// schedule kernel, which sees each net's every value of a cycle at
// once, counts the cycle itself and hands each net's totals to
// CountCycle before OnCycleEnd.
//
// Per change, the lanes that made a counted (known→known) transition
// on a net form one 64-bit mask: XOR of the packed old/new values ANDed
// with both known masks. Totals come from math/bits.OnesCount64 on that
// mask; per-lane per-cycle transition counts — the input to the paper's
// parity rule — are maintained as a small binary counter per net whose
// digits are 64-bit planes (plane p holds bit p of every lane's count),
// incremented by one ripple-carry step per mask. At cycle end the parity
// rule reads off the planes directly:
//
//   - lanes with an odd count = the set bits of plane 0, so the cycle's
//     useful total is one popcount;
//   - useless = transitions − useful, and glitches = useless/2, both
//     exact lane sums because Σ⌊n_l/2⌋ = (Σn_l − Σ(n_l mod 2))/2;
//   - the per-lane maximum (MaxPerCycle) falls out of a high-to-low
//     plane scan.
//
// A lane mask restricts counting to active lanes, letting a measurement
// retire lanes that have completed their cycle quota while the remaining
// lanes keep running.

import (
	"math/bits"

	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// initialPlanes is the number of count bit-planes allocated up front:
// enough for 2^4−1 transitions per net per lane per cycle; busier nets
// grow the plane stack on demand.
const initialPlanes = 4

// WideCounter performs transition counting and parity evaluation over
// the internal nets of a netlist, for all lanes at once.
type WideCounter struct {
	n        *netlist.Netlist
	include  []bool
	stats    []NetStats
	laneMask uint64

	// Per-net activity within the current cycle: total and rising
	// transition counts summed over active lanes, plus the per-lane
	// binary counter in bit-plane form (planes[p][net] holds bit p of
	// every lane's count). Allocated by the first Change: a counter fed
	// by CountCycle alone never needs them.
	curT    []uint32
	curRise []uint32
	planes  [][]uint64
	dirty   []netlist.NetID

	cycles int // classified lane-cycles (lanes × cycles, like merged Counters)
}

// NewWideCounter returns a WideCounter monitoring every internal net of
// the netlist, with all lanes active — the wide image of NewCounter.
func NewWideCounter(n *netlist.Netlist) *WideCounter {
	c := &WideCounter{
		n:        n,
		include:  make([]bool, n.NumNets()),
		stats:    make([]NetStats, n.NumNets()),
		laneMask: ^uint64(0),
	}
	for _, id := range n.InternalNets() {
		c.include[id] = true
	}
	return c
}

// SetLaneMask restricts counting to the lanes whose bit is set. It may
// only change between cycles (after OnCycleEnd, before the next
// change); transitions in masked-out lanes are ignored entirely.
func (c *WideCounter) SetLaneMask(mask uint64) { c.laneMask = mask }

// LaneMask returns the lanes counting is restricted to.
func (c *WideCounter) LaneMask() uint64 { return c.laneMask }

// CountCycle adds one net's classified activity over one cycle, counted
// by the caller over the active lanes (LaneMask): t transitions, rise of
// them rising, useful the number of lanes that made an odd number of
// transitions, and max the largest count of any lane. It is the
// whole-cycle form of Change followed by OnCycleEnd's classification of
// the net; OnCycleEnd still advances the cycle tally.
func (c *WideCounter) CountCycle(net netlist.NetID, t, rise, useful uint64, max uint32) {
	if !c.include[net] {
		return
	}
	st := &c.stats[net]
	st.Transitions += t
	st.Rising += rise
	st.Useful += useful
	st.Useless += t - useful
	st.Glitches += (t - useful) / 2
	if max > st.MaxPerCycle {
		st.MaxPerCycle = max
	}
}

// Change records one net's packed values before and after one instant:
// one ripple-carry increment of the net's per-lane counts. Transitions
// from or to X are not counted, matching the scalar Counter.
func (c *WideCounter) Change(net netlist.NetID, old, new logic.W) {
	if !c.include[net] {
		return
	}
	m := (old.Zero | old.One) & (new.Zero | new.One) & (old.One ^ new.One) & c.laneMask
	if m == 0 {
		return
	}
	if c.curT == nil {
		nn := len(c.stats)
		c.curT, c.curRise = make([]uint32, nn), make([]uint32, nn)
		c.planes = make([][]uint64, initialPlanes)
		for p := range c.planes {
			c.planes[p] = make([]uint64, nn)
		}
	}
	if c.curT[net] == 0 {
		c.dirty = append(c.dirty, net)
	}
	c.curT[net] += uint32(bits.OnesCount64(m))
	c.curRise[net] += uint32(bits.OnesCount64(m & new.One))
	carry := m
	for p := 0; p < len(c.planes); p++ {
		row := c.planes[p]
		prev := row[net]
		row[net] = prev ^ carry
		carry &= prev
		if carry == 0 {
			return
		}
	}
	// Some lane's count outgrew the plane stack: add a plane.
	c.planes = append(c.planes, make([]uint64, len(c.curT)))
	c.planes[len(c.planes)-1][net] = carry
}

// OnCycleEnd classifies every dirty net's per-lane transition counts by
// the parity rule and clears the per-cycle state. The cycle tally
// advances by the number of active lanes, so Cycles reads like the sum
// of the per-lane runs.
func (c *WideCounter) OnCycleEnd() {
	for _, net := range c.dirty {
		t := uint64(c.curT[net])
		useful := uint64(bits.OnesCount64(c.planes[0][net]))
		st := &c.stats[net]
		st.Transitions += t
		st.Rising += uint64(c.curRise[net])
		st.Useful += useful
		st.Useless += t - useful
		st.Glitches += (t - useful) / 2
		if max := c.laneMaxCount(net); max > st.MaxPerCycle {
			st.MaxPerCycle = max
		}
		c.curT[net], c.curRise[net] = 0, 0
		for p := range c.planes {
			c.planes[p][net] = 0
		}
	}
	c.dirty = c.dirty[:0]
	c.cycles += bits.OnesCount64(c.laneMask)
}

// laneMaxCount returns the largest per-lane transition count of the
// current cycle for one net, read off the bit planes high to low: at
// each plane the candidate set narrows to the lanes that have that bit
// set, if any do.
func (c *WideCounter) laneMaxCount(net netlist.NetID) uint32 {
	cand := ^uint64(0)
	var max uint32
	for p := len(c.planes) - 1; p >= 0; p-- {
		if t := cand & c.planes[p][net]; t != 0 {
			cand = t
			max |= 1 << uint(p)
		}
	}
	return max
}

// Cycles returns the number of classified lane-cycles.
func (c *WideCounter) Cycles() int { return c.cycles }

// Stats returns the accumulated lane-summed statistics of one net.
func (c *WideCounter) Stats(net netlist.NetID) NetStats { return c.stats[net] }

// Counter converts the accumulated wide statistics into an ordinary
// Counter, indistinguishable from the merge of the per-lane scalar
// counters: per-net stats are the lane sums (MaxPerCycle the lane max)
// and Cycles is the lane-cycle total. The WideCounter remains usable;
// the returned Counter owns copies of the statistics.
func (c *WideCounter) Counter() *Counter {
	out := &Counter{
		n:       c.n,
		include: append([]bool(nil), c.include...),
		stats:   append([]NetStats(nil), c.stats...),
		cur:     make([]cycleCount, len(c.stats)),
		cycles:  c.cycles,
	}
	return out
}
