package core_test

// WideCounter under the wide kernel, which counts each cycle per lane
// and hands the counter one net's totals at a time. These live in the
// external test package because internal/sim imports core.

import (
	"testing"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
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

// stepLanes steps k with input a at 1 in the given lanes and 0 in the
// others.
func stepLanes(t *testing.T, k sim.WideKernel, lanes uint64) {
	t.Helper()
	if err := k.Step([]logic.W{{Zero: ^lanes, One: lanes}}); err != nil {
		t.Fatal(err)
	}
}

// TestWideCounterPlaneGrowth: more transitions per lane per cycle than
// the kernel's four register bit-planes count carry into its high
// planes and keep exact totals, parity and MaxPerCycle. An XOR of an
// input and 36 buffered copies of it, each one unit later, toggles once
// per instant when the input does: 37 transitions in a cycle, one of
// them useful. Every statistic equals the merged scalar runs'.
func TestWideCounterPlaneGrowth(t *testing.T) {
	const copies = 36
	b := netlist.NewBuilder("xor-ladder")
	a := b.Input("a")
	ins := []netlist.NetID{a}
	for range copies {
		ins = append(ins, b.Buf(ins[len(ins)-1]))
	}
	y := b.Xor(ins...)
	b.Output("y", y)
	nl := b.MustBuild()
	seeds := make([]uint64, sim.MaxLanes)
	for l := range seeds {
		seeds[l] = uint64(l + 1)
	}
	const cycles = 12

	k := sim.NewWideKernel(sim.Compile(nl), sim.Options{Delay: delay.Unit()})
	wc := core.NewWideCounter(nl)
	k.AttachWideMonitor(wc)
	src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
	buf := make([]logic.W, nl.InputWidth())
	for range cycles {
		if err := k.Step(src.NextWide(buf)); err != nil {
			t.Fatal(err)
		}
	}
	got := wc.Counter()

	var want *core.Counter
	for _, seed := range seeds {
		s := sim.New(nl, sim.Options{Delay: delay.Unit()})
		c := core.NewCounter(nl)
		s.AttachMonitor(c)
		lane := stimulus.NewRandom(nl.InputWidth(), seed)
		for range cycles {
			if err := s.Step(lane.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if want == nil {
			want = c
		} else if err := want.Merge(c); err != nil {
			t.Fatal(err)
		}
	}
	if st := got.Stats(y); st.MaxPerCycle != copies+1 || st.Useless != copies*st.Useful {
		t.Fatalf("XOR ladder: %+v, want %d transitions per toggling cycle, one useful", st, copies+1)
	}
	for i := range nl.NumNets() {
		if g, w := got.Stats(netlist.NetID(i)), want.Stats(netlist.NetID(i)); g != w {
			t.Fatalf("net %s: wide %+v, merged scalar %+v", nl.Nets[i].Name, g, w)
		}
	}
}

// TestWideCounterLaneMask: masked-out lanes contribute nothing — not to
// totals, not to MaxPerCycle, not to the cycle tally.
func TestWideCounterLaneMask(t *testing.T) {
	nl, net := twoNetNetlist(t)
	k := sim.NewWideKernel(sim.Compile(nl), sim.Options{})
	stepLanes(t, k, 0) // settle every lane at out = 1
	c := core.NewWideCounter(nl)
	k.AttachWideMonitor(c)
	c.SetLaneMask(0b0011)
	// Lanes 0-3 fall; only 0 and 1 are active.
	stepLanes(t, k, 0b1111)
	st := c.Stats(net)
	if st.Transitions != 2 || st.Rising != 0 || st.Useful != 2 || st.MaxPerCycle != 1 {
		t.Errorf("masked stats = %+v, want 2 transitions, useful, none rising", st)
	}
	if c.Cycles() != 2 {
		t.Errorf("cycles = %d, want 2 (active lanes)", c.Cycles())
	}
	// Transitions entirely outside the mask leave the statistics alone.
	stepLanes(t, k, 0b0011)
	if got := c.Stats(net); got.Transitions != 2 {
		t.Errorf("masked-out lanes counted: %+v", got)
	}
}

// TestWideCounterXTransitionsIgnored: changes from or to X are not
// counted, matching the scalar Counter: the first step from reset turns
// out from X to known in every lane and counts nothing.
func TestWideCounterXTransitionsIgnored(t *testing.T) {
	nl, net := twoNetNetlist(t)
	k := sim.NewWideKernel(sim.Compile(nl), sim.Options{})
	c := core.NewWideCounter(nl)
	k.AttachWideMonitor(c)
	stepLanes(t, k, ^uint64(0))
	if st := c.Stats(net); st.Transitions != 0 {
		t.Errorf("X->0 counted: %+v", st)
	}
	stepLanes(t, k, 0)
	if st := c.Stats(net); st.Transitions != 64 || st.Rising != 64 {
		t.Errorf("0->1 in every lane: %+v, want 64 rising transitions", st)
	}
}

// TestWideCounterFold: Counter() folds into an ordinary Counter with
// matching totals and cycle count, and the fold is a copy.
func TestWideCounterFold(t *testing.T) {
	nl, net := twoNetNetlist(t)
	c := core.NewWideCounter(nl)
	c.CountCycle(net, 1, 1, 1, 1)
	c.OnCycleEnd()
	folded := c.Counter()
	if folded.Cycles() != 64 || folded.Stats(net).Transitions != 1 {
		t.Errorf("folded: cycles=%d stats=%+v", folded.Cycles(), folded.Stats(net))
	}
	if folded.Totals() != c.Stats(net) {
		// Only `net` is monitored and active, so totals equal its stats.
		t.Errorf("fold totals %+v != wide stats %+v", folded.Totals(), c.Stats(net))
	}
	c.CountCycle(net, 1, 0, 1, 1)
	c.OnCycleEnd()
	if folded.Stats(net).Transitions != 1 {
		t.Error("fold aliases the live WideCounter")
	}
}
