package core

import (
	"strings"
	"testing"
	"testing/quick"

	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// feed drives the counter directly with a synthetic per-cycle transition
// pattern on one net, alternating values starting from 0.
func feed(c *Counter, net netlist.NetID, perCycle []int) {
	for cy, n := range perCycle {
		v := logic.L0
		for i := 0; i < n; i++ {
			old := v
			if v == logic.L0 {
				v = logic.L1
			} else {
				v = logic.L0
			}
			c.OnChange(net, cy, i+1, old, v)
		}
		c.OnCycleEnd(cy)
	}
}

func oneNetCounter(t *testing.T) (*Counter, netlist.NetID) {
	t.Helper()
	b := netlist.NewBuilder("n")
	x := b.Input("x")
	y := b.Not(x)
	b.Output("y", y)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return NewCounter(n), y
}

func TestParityClassification(t *testing.T) {
	cases := []struct {
		perCycle              []int
		useful, useless, glit uint64
	}{
		{[]int{1}, 1, 0, 0},       // single useful transition
		{[]int{2}, 0, 2, 1},       // one glitch
		{[]int{3}, 1, 2, 1},       // useful + glitch (paper Fig 4, signal 3)
		{[]int{4}, 0, 4, 2},       // two glitches
		{[]int{0, 5}, 1, 4, 2},    // idle cycle then 5 transitions
		{[]int{1, 1, 1}, 3, 0, 0}, // steady useful activity
		{[]int{2, 2}, 0, 4, 2},    // pure glitching
		{[]int{7, 2, 1}, 2, 8, 4}, // mixed
	}
	for _, tc := range cases {
		c, net := oneNetCounter(t)
		feed(c, net, tc.perCycle)
		st := c.Stats(net)
		if st.Useful != tc.useful || st.Useless != tc.useless || st.Glitches != tc.glit {
			t.Errorf("pattern %v: got F=%d L=%d G=%d, want F=%d L=%d G=%d",
				tc.perCycle, st.Useful, st.Useless, st.Glitches, tc.useful, tc.useless, tc.glit)
		}
	}
}

func TestParityRuleProperty(t *testing.T) {
	// For any per-cycle counts: F+L = total, F = number of odd cycles,
	// G = sum of floor(n/2).
	f := func(raw []uint8) bool {
		perCycle := make([]int, len(raw))
		var wantF, wantL, wantG, wantT uint64
		for i, r := range raw {
			n := int(r % 10)
			perCycle[i] = n
			wantT += uint64(n)
			if n%2 == 1 {
				wantF++
				wantL += uint64(n - 1)
			} else {
				wantL += uint64(n)
			}
			wantG += uint64(n / 2)
		}
		b := netlist.NewBuilder("p")
		x := b.Input("x")
		y := b.Not(x)
		b.Output("y", y)
		n, err := b.Build()
		if err != nil {
			return false
		}
		c := NewCounter(n)
		feed(c, y, perCycle)
		st := c.Stats(y)
		return st.Transitions == wantT && st.Useful == wantF &&
			st.Useless == wantL && st.Glitches == wantG &&
			st.Useful+st.Useless == st.Transitions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRisingCounts(t *testing.T) {
	c, net := oneNetCounter(t)
	// 0->1->0->1: 2 rising of 3 transitions.
	feed(c, net, []int{3})
	st := c.Stats(net)
	if st.Rising != 2 {
		t.Errorf("rising = %d, want 2", st.Rising)
	}
	if st.Transitions != 3 {
		t.Errorf("transitions = %d, want 3", st.Transitions)
	}
}

func TestXTransitionsIgnored(t *testing.T) {
	c, net := oneNetCounter(t)
	c.OnChange(net, 0, 1, logic.X, logic.L1)
	c.OnCycleEnd(0)
	if st := c.Stats(net); st.Transitions != 0 {
		t.Errorf("X transition counted: %+v", st)
	}
}

func TestPrimaryInputsExcluded(t *testing.T) {
	b := netlist.NewBuilder("pi")
	x := b.Input("x")
	y := b.Buf(x)
	b.Output("y", y)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(n)
	c.OnChange(x, 0, 0, logic.L0, logic.L1) // PI change must be ignored
	c.OnChange(y, 0, 1, logic.L0, logic.L1)
	c.OnCycleEnd(0)
	if tot := c.Totals(); tot.Transitions != 1 {
		t.Errorf("total = %d, want 1 (PI excluded)", tot.Transitions)
	}
}

func TestResetAndCycles(t *testing.T) {
	c, net := oneNetCounter(t)
	feed(c, net, []int{3, 2})
	if c.Cycles() != 2 {
		t.Fatalf("cycles = %d", c.Cycles())
	}
	c.Reset()
	if c.Cycles() != 0 || c.Totals().Transitions != 0 {
		t.Error("reset did not clear")
	}
	// Mid-cycle reset discards partial counts.
	c.OnChange(net, 0, 1, logic.L0, logic.L1)
	c.Reset()
	c.OnCycleEnd(0)
	if c.Totals().Transitions != 0 {
		t.Error("mid-cycle reset leaked counts")
	}
}

func TestMaxPerCycle(t *testing.T) {
	c, net := oneNetCounter(t)
	feed(c, net, []int{1, 4, 2})
	if st := c.Stats(net); st.MaxPerCycle != 4 {
		t.Errorf("MaxPerCycle = %d, want 4", st.MaxPerCycle)
	}
}

func TestUselessOverUseful(t *testing.T) {
	s := NetStats{Useful: 4, Useless: 6}
	if got := s.UselessOverUseful(); got != 1.5 {
		t.Errorf("L/F = %v, want 1.5", got)
	}
	if (NetStats{}).UselessOverUseful() != 0 {
		t.Error("empty stats should give 0")
	}
}

func TestReportAndBalanceLimit(t *testing.T) {
	c, net := oneNetCounter(t)
	feed(c, net, []int{5, 1}) // F=2, L=4
	r := c.Report()
	if r.Cycles != 2 || r.Total.Useful != 2 || r.Total.Useless != 4 {
		t.Fatalf("report totals wrong: %+v", r.Total)
	}
	if got := r.BalanceLimitFactor(); got != 3 {
		t.Errorf("balance limit = %v, want 1+4/2 = 3", got)
	}
	if len(r.PerNet) != 1 || r.PerNet[0].Net != "n0" {
		t.Errorf("per-net report wrong: %+v", r.PerNet)
	}
	if !strings.Contains(r.String(), "L/F=2.00") {
		t.Errorf("String() = %q", r.String())
	}
	empty := Report{}
	if empty.BalanceLimitFactor() != 1 {
		t.Error("empty report balance limit should be 1")
	}
}
