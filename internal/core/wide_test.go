package core

import (
	"testing"

	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// twoNetNetlist builds a minimal circuit (in -> not -> out) so the
// counter has an internal net (id of the not output) to monitor.
func twoNetNetlist(t *testing.T) (*netlist.Netlist, netlist.NetID) {
	t.Helper()
	b := netlist.NewBuilder("wide-counter-test")
	in := b.Input("a")
	out := b.Not(in)
	b.Output("out", out)
	nl := b.MustBuild()
	return nl, out
}

// flip feeds c one change of `net` between 0 and 1 on the given lanes
// (rising when rise is true), with all other lanes steady at 0.
func flip(c *WideCounter, net netlist.NetID, lanes uint64, rise bool) {
	allZero := logic.SplatW(logic.L0)
	lanesOne := logic.W{Zero: ^lanes, One: lanes}
	if rise {
		c.Change(net, allZero, lanesOne)
	} else {
		c.Change(net, lanesOne, allZero)
	}
}

// TestWideCounterPlaneGrowth: more transitions per lane per cycle than
// the initial bit-plane stack can count must grow the stack, keep exact
// totals, and report the right MaxPerCycle.
func TestWideCounterPlaneGrowth(t *testing.T) {
	nl, net := twoNetNetlist(t)
	c := NewWideCounter(nl)
	const flips = 37 // > 2^initialPlanes - 1
	for i := 0; i < flips; i++ {
		flip(c, net, 1|1<<7, i%2 == 0)
	}
	c.OnCycleEnd()
	st := c.Stats(net)
	if st.Transitions != 2*flips {
		t.Errorf("transitions = %d, want %d", st.Transitions, 2*flips)
	}
	// 37 flips per lane: odd count, so one useful per lane.
	if st.Useful != 2 || st.Useless != 2*(flips-1) {
		t.Errorf("useful/useless = %d/%d, want 2/%d", st.Useful, st.Useless, 2*(flips-1))
	}
	if st.Glitches != 2*(flips/2) {
		t.Errorf("glitches = %d, want %d", st.Glitches, 2*(flips/2))
	}
	if st.MaxPerCycle != flips {
		t.Errorf("MaxPerCycle = %d, want %d", st.MaxPerCycle, flips)
	}
	// 19 of the 37 flips were rising (i even).
	if st.Rising != 2*19 {
		t.Errorf("rising = %d, want 38", st.Rising)
	}
}

// TestWideCounterLaneMask: masked-out lanes contribute nothing — not to
// totals, not to MaxPerCycle, not to the cycle tally.
func TestWideCounterLaneMask(t *testing.T) {
	nl, net := twoNetNetlist(t)
	c := NewWideCounter(nl)
	c.SetLaneMask(0b0011)
	// Lanes 0-3 transition; only 0 and 1 are active.
	flip(c, net, 0b1111, true)
	c.OnCycleEnd()
	st := c.Stats(net)
	if st.Transitions != 2 || st.Rising != 2 || st.Useful != 2 || st.MaxPerCycle != 1 {
		t.Errorf("masked stats = %+v, want 2 transitions/rising/useful", st)
	}
	if c.Cycles() != 2 {
		t.Errorf("cycles = %d, want 2 (active lanes)", c.Cycles())
	}
	// Transitions entirely outside the mask leave the counter untouched.
	flip(c, net, 0b1100, false)
	c.OnCycleEnd()
	if got := c.Stats(net); got.Transitions != 2 {
		t.Errorf("masked-out lanes counted: %+v", got)
	}
}

// TestWideCounterXTransitionsIgnored: changes from or to X are not
// counted, matching the scalar Counter.
func TestWideCounterXTransitionsIgnored(t *testing.T) {
	nl, net := twoNetNetlist(t)
	c := NewWideCounter(nl)
	c.Change(net, logic.SplatW(logic.X), logic.SplatW(logic.L1))
	c.OnCycleEnd()
	if st := c.Stats(net); st.Transitions != 0 {
		t.Errorf("X->1 counted: %+v", st)
	}
}

// TestWideCounterFold: Counter() folds into an ordinary Counter with
// matching totals and cycle count, and the fold is a copy.
func TestWideCounterFold(t *testing.T) {
	nl, net := twoNetNetlist(t)
	c := NewWideCounter(nl)
	flip(c, net, 1, true)
	c.OnCycleEnd()
	folded := c.Counter()
	if folded.Cycles() != 64 || folded.Stats(net).Transitions != 1 {
		t.Errorf("folded: cycles=%d stats=%+v", folded.Cycles(), folded.Stats(net))
	}
	if folded.Totals() != c.stats[net] {
		// Only `net` is monitored and active, so totals equal its stats.
		t.Errorf("fold totals %+v != wide stats %+v", folded.Totals(), c.stats[net])
	}
	flip(c, net, 1, false)
	c.OnCycleEnd()
	if folded.Stats(net).Transitions != 1 {
		t.Error("fold aliases the live WideCounter")
	}
}
