package core

// WideCounter: transition counting with parity evaluation for the
// word-parallel kernel. Where Counter tallies one lane, WideCounter
// classifies all 64 lanes of a wide simulation at once and produces
// statistics bit-identical to 64 scalar Counters merged in lane order.
// The wide kernel in internal/sim sees each net's every value of a cycle
// at once: it counts the cycle itself, per lane and net with the parity
// rule applied, and hands each net's totals to CountCycle, then calls
// OnCycleEnd, which advances the cycle tally.
//
// A lane mask restricts counting to active lanes, letting a measurement
// retire lanes that have completed their cycle quota while the remaining
// lanes keep running.

import (
	"math/bits"

	"glitchsim/netlist"
)

// WideCounter performs transition counting and parity evaluation over
// the internal nets of a netlist, for all lanes at once.
type WideCounter struct {
	n        *netlist.Netlist
	include  []bool
	stats    []NetStats
	laneMask uint64

	cycles int  // classified lane-cycles (lanes × cycles, like merged Counters)
	open   bool // a CountCycle since the last OnCycleEnd: mid-cycle
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
// CountCycle); transitions in masked-out lanes are ignored entirely.
func (c *WideCounter) SetLaneMask(mask uint64) { c.laneMask = mask }

// LaneMask returns the lanes counting is restricted to.
func (c *WideCounter) LaneMask() uint64 { return c.laneMask }

// CountCycle adds one net's classified activity over one cycle, counted
// by the caller over the active lanes (LaneMask): t known→known
// transitions, rise of them rising, useful the number of lanes that made
// an odd number of transitions (the parity rule), and max the largest
// count of any lane. Useless = t − useful and glitches = useless/2 are
// exact lane sums, because Σ⌊n_l/2⌋ = (Σn_l − Σ(n_l mod 2))/2.
// OnCycleEnd advances the cycle tally.
func (c *WideCounter) CountCycle(net netlist.NetID, t, rise, useful uint64, max uint32) {
	if !c.include[net] {
		return
	}
	c.open = true
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

// OnCycleEnd ends a cycle: the cycle tally advances by the number of
// active lanes, so Cycles reads like the sum of the per-lane runs.
func (c *WideCounter) OnCycleEnd() {
	c.cycles += bits.OnesCount64(c.laneMask)
	c.open = false
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
