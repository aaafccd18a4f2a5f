// Package core implements the paper's primary contribution: transition
// counting with parity evaluation, classifying every signal transition in
// a synchronous network as useful or useless and quantifying glitches.
//
// # Classification rule (paper §3.3)
//
// Within one clock cycle a signal's final value either differs from its
// previous settled value (it made one functionally required change) or it
// does not. Hence:
//
//  1. If a signal makes an odd number of transitions in a cycle, exactly
//     one of them is useful; the remaining n−1 are useless.
//  2. If it makes an even number of transitions, all n are useless.
//
// Two consecutive useless transitions constitute a glitch, so a signal
// making n transitions in a cycle contributes ⌊n/2⌋ glitches.
//
// The Counter below implements this rule as a sim.Monitor: it tallies
// per-net transitions during each cycle and classifies them when the
// cycle ends. Rising (0→1) transitions are tracked separately because
// only those draw charge from the supply (paper §2).
package core

import (
	"fmt"
	"sort"

	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// NetStats accumulates classified activity for one net across all
// observed cycles.
type NetStats struct {
	// Transitions is the total number of 0↔1 changes.
	Transitions uint64
	// Useful is the number of functionally required transitions (at most
	// one per cycle, by the parity rule).
	Useful uint64
	// Useless is the number of glitching transitions
	// (Transitions = Useful + Useless).
	Useless uint64
	// Glitches counts pairs of consecutive useless transitions.
	Glitches uint64
	// Rising counts power-consuming (0→1) transitions.
	Rising uint64
	// MaxPerCycle is the largest transition count observed in any single
	// cycle (the paper's worst case analysis tracks this for S_{N-1}).
	MaxPerCycle uint32
}

func (s *NetStats) add(o NetStats) {
	s.Transitions += o.Transitions
	s.Useful += o.Useful
	s.Useless += o.Useless
	s.Glitches += o.Glitches
	s.Rising += o.Rising
	if o.MaxPerCycle > s.MaxPerCycle {
		s.MaxPerCycle = o.MaxPerCycle
	}
}

// UselessOverUseful returns the paper's L/F ratio for this net; it is 0
// when no useful transitions were observed.
func (s NetStats) UselessOverUseful() float64 {
	if s.Useful == 0 {
		return 0
	}
	return float64(s.Useless) / float64(s.Useful)
}

// Counter is a sim.Monitor that performs transition counting and parity
// evaluation over a chosen set of nets.
type Counter struct {
	n       *netlist.Netlist
	include []bool
	stats   []NetStats
	cur     []cycleCount // per-net activity so far this cycle
	dirty   []netlist.NetID
	cycles  int
}

// cycleCount is one net's activity within the current cycle; keeping the
// transition and rising counts adjacent halves the cache traffic of the
// per-transition hot path.
type cycleCount struct {
	n, rise uint32
}

// NewCounter returns a Counter monitoring every internal net of the
// netlist — "all internal signal nodes are monitored" (paper §4) —
// excluding primary inputs, whose single change per cycle is stimulus,
// not circuit activity.
func NewCounter(n *netlist.Netlist) *Counter {
	return NewCounterFor(n, n.InternalNets())
}

// NewCounterFor returns a Counter monitoring exactly the given nets.
func NewCounterFor(n *netlist.Netlist, nets []netlist.NetID) *Counter {
	c := &Counter{
		n:       n,
		include: make([]bool, n.NumNets()),
		stats:   make([]NetStats, n.NumNets()),
		cur:     make([]cycleCount, n.NumNets()),
	}
	for _, id := range nets {
		c.include[id] = true
	}
	return c
}

// OnChange implements sim.Monitor. Transitions from X (start-up) are not
// counted.
func (c *Counter) OnChange(net netlist.NetID, _, _ int, old, new logic.V) {
	if !c.include[net] || !old.Known() || !new.Known() {
		return
	}
	p := &c.cur[net]
	if p.n == 0 {
		c.dirty = append(c.dirty, net)
	}
	p.n++
	if new == logic.L1 {
		p.rise++
	}
}

// OnCycleEnd implements sim.Monitor: it classifies the cycle's transition
// counts by the parity rule and clears the per-cycle state.
func (c *Counter) OnCycleEnd(int) {
	for _, net := range c.dirty {
		p := &c.cur[net]
		n := uint64(p.n)
		st := &c.stats[net]
		st.Transitions += n
		st.Rising += uint64(p.rise)
		if n%2 == 1 {
			st.Useful++
			st.Useless += n - 1
		} else {
			st.Useless += n
		}
		st.Glitches += n / 2
		if uint32(n) > st.MaxPerCycle {
			st.MaxPerCycle = uint32(n)
		}
		*p = cycleCount{}
	}
	c.dirty = c.dirty[:0]
	c.cycles++
}

// Merge folds the accumulated statistics of another counter into c:
// per-net statistics add (MaxPerCycle takes the maximum) and the cycle
// counts sum, so the aggregate reads like one long measurement. Both
// counters must be built over netlists with the same net count —
// typically the very same netlist, measured under different seeds or
// stimulus streams by the parallel batch layer. Merging a counter whose
// monitored net set differs is allowed; Totals keeps using c's own set.
// The other counter must be mid-cycle idle (no partial cycle state).
func (c *Counter) Merge(o *Counter) error {
	if len(c.stats) != len(o.stats) {
		return fmt.Errorf("core: cannot merge counters over %d and %d nets", len(c.stats), len(o.stats))
	}
	for i := range c.stats {
		c.stats[i].add(o.stats[i])
	}
	c.cycles += o.cycles
	return nil
}

// Reset clears all accumulated statistics (typically called after warm-up
// cycles so start-up activity does not pollute the measurement).
func (c *Counter) Reset() {
	for i := range c.stats {
		c.stats[i] = NetStats{}
	}
	for _, net := range c.dirty {
		c.cur[net] = cycleCount{}
	}
	c.dirty = c.dirty[:0]
	c.cycles = 0
}

// Cycles returns the number of classified cycles.
func (c *Counter) Cycles() int { return c.cycles }

// Netlist returns the netlist the counter was built for.
func (c *Counter) Netlist() *netlist.Netlist { return c.n }

// Stats returns the accumulated statistics of one net.
func (c *Counter) Stats(net netlist.NetID) NetStats { return c.stats[net] }

// Totals returns statistics summed over all monitored nets: the numbers
// the paper's Tables 1 and 2 report per circuit.
func (c *Counter) Totals() NetStats {
	var t NetStats
	for i := range c.stats {
		if c.include[i] {
			t.add(c.stats[i])
		}
	}
	return t
}

// BusTotals sums statistics over the nets of a named bus. It returns the
// zero value for unknown buses.
func (c *Counter) BusTotals(bus string) NetStats {
	var t NetStats
	for _, id := range c.n.Bus(bus) {
		if c.include[id] {
			t.add(c.stats[id])
		}
	}
	return t
}

// BusBitStats returns per-bit statistics of a named bus (LSB first),
// the shape of the paper's Figure 5.
func (c *Counter) BusBitStats(bus string) []NetStats {
	ids := c.n.Bus(bus)
	out := make([]NetStats, len(ids))
	for i, id := range ids {
		out[i] = c.stats[id]
	}
	return out
}

// Report is a self-contained summary of one activity measurement.
type Report struct {
	Circuit string
	Cycles  int
	Total   NetStats
	// PerNet lists per-net statistics for monitored nets that saw any
	// activity, sorted by descending useless count.
	PerNet []NetReport
}

// NetReport pairs a net name with its statistics.
type NetReport struct {
	Net   string
	Stats NetStats
}

// Report builds a Report snapshot.
func (c *Counter) Report() Report {
	r := Report{Circuit: c.n.Name, Cycles: c.cycles, Total: c.Totals()}
	for i := range c.stats {
		if c.include[i] && c.stats[i].Transitions > 0 {
			r.PerNet = append(r.PerNet, NetReport{Net: c.n.Nets[i].Name, Stats: c.stats[i]})
		}
	}
	sort.Slice(r.PerNet, func(a, b int) bool {
		if r.PerNet[a].Stats.Useless != r.PerNet[b].Stats.Useless {
			return r.PerNet[a].Stats.Useless > r.PerNet[b].Stats.Useless
		}
		return r.PerNet[a].Net < r.PerNet[b].Net
	})
	return r
}

// BalanceLimitFactor returns the paper's bound on achievable activity
// reduction: if all delay paths were perfectly balanced every useless
// transition would disappear, reducing combinational activity by
// (F+L)/F = 1 + L/F (the paper's §4.2 computes 1 + 3.8 = 4.8 for the
// direction detector).
func (r Report) BalanceLimitFactor() float64 {
	if r.Total.Useful == 0 {
		return 1
	}
	return 1 + r.Total.UselessOverUseful()
}

// String renders a compact single-circuit summary.
func (r Report) String() string {
	return fmt.Sprintf("%s: %d cycles, %d transitions (%d useful, %d useless, L/F=%.2f, %d glitches, %d rising)",
		r.Circuit, r.Cycles, r.Total.Transitions, r.Total.Useful, r.Total.Useless,
		r.Total.UselessOverUseful(), r.Total.Glitches, r.Total.Rising)
}
