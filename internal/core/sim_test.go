package core_test

// Counters driven by the scalar simulator. These live in the external
// test package because internal/sim imports core: the wide kernels
// count straight into a core.WideCounter.

import (
	"testing"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

func TestEndToEndWithSimulator(t *testing.T) {
	// The hazard circuit AND(a, NOT a): every rising edge of a produces
	// exactly one glitch (2 useless transitions) on the output and one
	// useful+0 useless on the inverter output.
	b := netlist.NewBuilder("hazard")
	a := b.Input("a")
	na := b.Not(a)
	out := b.And(a, na)
	b.Output("out", out)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(n, sim.Options{Delay: delay.Unit()})
	c := core.NewCounter(n)
	s.AttachMonitor(c)

	// 10 rising edges (a: 0,1,0,1,...) over 20 cycles.
	for i := 0; i < 20; i++ {
		if err := s.Step(logic.Vector{logic.FromBit(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// First cycle is X->0 settling; 10 rising edges a=1 at odd cycles.
	outStats := c.Stats(out)
	if outStats.Useful != 0 {
		t.Errorf("hazard out useful = %d, want 0", outStats.Useful)
	}
	if outStats.Glitches != 10 {
		t.Errorf("hazard out glitches = %d, want 10", outStats.Glitches)
	}
	naStats := c.Stats(na)
	if naStats.Useless != 0 || naStats.Useful < 19 {
		t.Errorf("inverter stats wrong: %+v", naStats)
	}
	if tot := c.Totals(); tot.Transitions != outStats.Transitions+naStats.Transitions {
		t.Error("totals do not add up")
	}
}

func TestInvariantUsefulPlusUselessEqualsTotal(t *testing.T) {
	// Random simulation of a small adder: invariant must hold per net.
	b := netlist.NewBuilder("rca4")
	av := b.InputBus("a", 4)
	bv := b.InputBus("b", 4)
	carry := b.Const(0)
	var sums []netlist.NetID
	for i := 0; i < 4; i++ {
		var s netlist.NetID
		s, carry = b.FullAdder(av[i], bv[i], carry)
		sums = append(sums, s)
	}
	b.OutputBus("s", sums)
	b.Output("cout", carry)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(n, sim.Options{})
	c := core.NewCounter(n)
	s.AttachMonitor(c)
	src := stimulus.NewRandom(8, 42)
	for i := 0; i < 500; i++ {
		if err := s.Step(src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range n.InternalNets() {
		st := c.Stats(id)
		if st.Useful+st.Useless != st.Transitions {
			t.Fatalf("net %s: F+L=%d+%d != T=%d", n.Net(id).Name, st.Useful, st.Useless, st.Transitions)
		}
		if st.Useful > uint64(c.Cycles()) {
			t.Fatalf("net %s: useful %d exceeds cycle count %d", n.Net(id).Name, st.Useful, c.Cycles())
		}
		if st.Rising > st.Transitions {
			t.Fatalf("net %s: rising exceeds total", n.Net(id).Name)
		}
	}
}

func TestBusTotalsAndBitStats(t *testing.T) {
	b := netlist.NewBuilder("bus")
	x := b.InputBus("x", 2)
	o := []netlist.NetID{b.Not(x[0]), b.Not(x[1])}
	b.OutputBus("o", o)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(n, sim.Options{})
	c := core.NewCounter(n)
	s.AttachMonitor(c)
	for i := 0; i < 8; i++ {
		if err := s.Step(logic.Vector{logic.FromBit(uint64(i)), logic.FromBit(uint64(i / 2))}); err != nil {
			t.Fatal(err)
		}
	}
	bits := c.BusBitStats("o")
	if len(bits) != 2 {
		t.Fatal("bit stats length")
	}
	if bits[0].Transitions <= bits[1].Transitions {
		t.Errorf("bit0 toggles every cycle, bit1 every other: %d vs %d",
			bits[0].Transitions, bits[1].Transitions)
	}
	bt := c.BusTotals("o")
	if bt.Transitions != bits[0].Transitions+bits[1].Transitions {
		t.Error("bus totals mismatch")
	}
	if c.BusTotals("nope").Transitions != 0 {
		t.Error("unknown bus should be zero")
	}
}
