package retime

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// equivalent simulates both netlists on the same random stimulus and
// checks that the retimed outputs equal the original outputs delayed by
// `latency` cycles. Warm-up cycles (X or pipeline fill) are skipped.
func equivalent(t *testing.T, orig, rt *netlist.Netlist, latency, cycles int, seed uint64) {
	t.Helper()
	if orig.InputWidth() != rt.InputWidth() || orig.OutputWidth() != rt.OutputWidth() {
		t.Fatalf("interface mismatch: %d/%d vs %d/%d",
			orig.InputWidth(), orig.OutputWidth(), rt.InputWidth(), rt.OutputWidth())
	}
	so := sim.New(orig, sim.Options{})
	sr := sim.New(rt, sim.Options{})
	srcO := stimulus.NewRandom(orig.InputWidth(), seed)
	srcR := stimulus.NewRandom(orig.InputWidth(), seed)
	var history []logic.Vector
	warm := latency + orig.LogicDepth() + 2
	for i := 0; i < cycles; i++ {
		if err := so.Step(srcO.Next()); err != nil {
			t.Fatal(err)
		}
		history = append(history, append(logic.Vector(nil), so.Outputs()...))
		if err := sr.Step(srcR.Next()); err != nil {
			t.Fatal(err)
		}
		if i < warm || i-latency < 0 {
			continue
		}
		want := history[i-latency]
		got := sr.Outputs()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("cycle %d output %d (%s): got %v, want %v",
					i, j, rt.Net(rt.POs[j]).Name, got[j], want[j])
			}
		}
	}
}

func TestPureRetimingPreservesRCA(t *testing.T) {
	n := circuits.NewRCA(8, circuits.Cells)
	res, err := Retime(n, delay.Unit(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A combinational circuit cannot be sped up by pure retiming: the
	// period stays at the 8-FA carry chain (constants settle at start-up
	// and contribute no delay).
	if res.Period != 8 {
		t.Errorf("pure retiming changed period to %d, want 8", res.Period)
	}
	if res.Registers != 0 {
		t.Errorf("pure retiming of combinational circuit created %d registers", res.Registers)
	}
	equivalent(t, n, res.Netlist, 0, 100, 1)
}

func TestPipelineRCAHalvesPeriod(t *testing.T) {
	n := circuits.NewRCA(8, circuits.Cells)
	cp := n.CriticalPathLength(delay.AsDelayFunc(delay.Unit()))
	res, err := Pipeline(n, delay.Unit(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period > (cp+1)/2+1 {
		t.Errorf("1-stage pipeline period %d, expected about half of %d", res.Period, cp)
	}
	if res.Registers == 0 {
		t.Error("pipelining created no registers")
	}
	equivalent(t, n, res.Netlist, 1, 150, 2)
}

func TestDeepPipelineReachesUnitPeriod(t *testing.T) {
	n := circuits.NewRCA(4, circuits.Cells)
	cp := n.CriticalPathLength(delay.AsDelayFunc(delay.Unit()))
	res, err := ForPeriod(n, delay.Unit(), 1, cp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != 1 {
		t.Errorf("period %d, want 1", res.Period)
	}
	equivalent(t, n, res.Netlist, res.Latency, 120, 3)
}

// sinkDigest hashes every net's sink list in order, which Fingerprint
// leaves out.
func sinkDigest(n *netlist.Netlist) string {
	h := sha256.New()
	for i := range n.Nets {
		for _, s := range n.Nets[i].Sinks {
			h.Write([]byte(strconv.Itoa(int(s.Cell)) + "/" + strconv.Itoa(s.Port) + ","))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestDefaultSweepRetimingsPinned pins the twelve retimings of the
// default Table 3 (maxStages 4·cp) and Figure 10 (8·cp) sweeps of the
// input-registered direction detector: depth, period, register count,
// the retimed netlist's fingerprint and its per-net sink order. The
// values were recorded from the linear depth search that rebuilt the
// graph for every depth, so they hold the bounded search and the
// rebuild to the same answers.
func TestDefaultSweepRetimingsPinned(t *testing.T) {
	n, cp := sweepSubject()
	if cp != 71 {
		t.Fatalf("subject clock period %d, want 71", cp)
	}
	for _, tc := range []struct {
		stagesPerCP, target, latency, period, registers int
		fingerprint, sinks                              string
	}{
		{4, 71, 0, 71, 48, "fe263a66e4e31e46657e01b719cbe0a263610ddb2b1770fe8dae54ca2121c716", "16bab37ae4bcd499"},
		{4, 30, 2, 30, 156, "b61960c0e9cd8dd02070899d9fc58d7a24ce6b8448ff382debc814a046970030", "d4a1a62c9088a313"},
		{4, 23, 3, 23, 195, "404a8181ab3950e6514c4f5ecfb580c0e793409abf74ce7a2c7d18d1959abb06", "7373be2efb68bc7f"},
		{4, 15, 4, 15, 285, "e1020eeac69337d5e21cdb6dfce548028c70c64a6215616f863580b7f2d89df1", "70b895a67a8b142d"},
		{8, 71, 0, 71, 48, "fe263a66e4e31e46657e01b719cbe0a263610ddb2b1770fe8dae54ca2121c716", "16bab37ae4bcd499"},
		{8, 35, 2, 35, 136, "80b51104b37642082b41f460d38b2a293ba4d40a87ab072f208f463994d8b18d", "29dd8c99eb9db2c9"},
		{8, 23, 3, 23, 195, "404a8181ab3950e6514c4f5ecfb580c0e793409abf74ce7a2c7d18d1959abb06", "7373be2efb68bc7f"},
		{8, 17, 4, 17, 267, "78ffa8b69f94806cbfc409660f3233641f5d6dcd70eff0ebce5a6c2bda3fa31f", "858ec32c0bddb047"},
		{8, 14, 5, 14, 295, "eb4094bf3f807a10cbe1e34b2c5ff32e8b4f7a269ee6c457ae9ca2160c4f099b", "9a816f0624db0b56"},
		{8, 10, 7, 10, 428, "7bfed61de5704785f9e1af94ea8cf2a93c82450c11777dd8ba2c1cdffdd3582c", "8a6971e7e47061ad"},
		{8, 7, 10, 7, 598, "c0b0590d773a873412702d446fb5ec1dc72fa0f9cbc25e89b854ac9af3e85f3c", "302ed05ac8c3969c"},
		{8, 5, 14, 5, 856, "5b79007548451b167c9db8d5fa695738bfd5addb269378188ba9ea3f93d7575a", "a8f762f05d955575"},
	} {
		res, err := ForPeriod(n, delay.Unit(), tc.target, tc.stagesPerCP*cp)
		if err != nil {
			t.Fatalf("target %d: %v", tc.target, err)
		}
		if res.Latency != tc.latency || res.Period != tc.period || res.Registers != tc.registers {
			t.Errorf("target %d: latency/period/registers %d/%d/%d, want %d/%d/%d",
				tc.target, res.Latency, res.Period, res.Registers, tc.latency, tc.period, tc.registers)
		}
		if got := res.Netlist.Fingerprint(); got != tc.fingerprint {
			t.Errorf("target %d: fingerprint %s, want %s", tc.target, got, tc.fingerprint)
		}
		if got := sinkDigest(res.Netlist); got != tc.sinks {
			t.Errorf("target %d: sink order digest %s, want %s", tc.target, got, tc.sinks)
		}
	}
}

func TestForPeriodInfeasible(t *testing.T) {
	n := circuits.NewRCA(4, circuits.Cells)
	// Period 0 can never be met (unit-delay cells).
	if _, err := ForPeriod(n, delay.Unit(), 0, 8); err == nil {
		t.Fatal("expected infeasibility error")
	}
	if _, err := Retime(n, delay.Unit(), Options{TargetPeriod: 1}); err == nil {
		t.Fatal("expected error: period 1 without extra latency")
	}
}

func TestPipelineMultiplier(t *testing.T) {
	n := circuits.NewWallaceMultiplier(4, circuits.Cells)
	res, err := Pipeline(n, delay.Unit(), 2)
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, n, res.Netlist, 2, 150, 4)
}

func TestPipelineGateLevelDirectionDetector(t *testing.T) {
	n := circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 4, Style: circuits.Gates})
	res, err := Pipeline(n, delay.Unit(), 1)
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, n, res.Netlist, 1, 120, 5)
}

func TestRetimeSequentialCircuit(t *testing.T) {
	// An accumulator-style circuit with an existing register: retiming
	// must preserve behaviour including the feedback loop.
	b := netlist.NewBuilder("acc")
	x := b.InputBus("x", 4)
	seed := b.Const(0)
	// sum = DFF(sum + x): build adder reading a placeholder, then rewire.
	placeholder := []netlist.NetID{seed, seed, seed, seed}
	sum, _ := circuits.RippleAdd(b, circuits.Cells, x, placeholder, b.Const(0))
	reg := b.RegisterBus(sum)
	for i, fa := range []int{0, 1, 2, 3} {
		// FA cells are cells 2..5 (after two consts); rewire port 1.
		_ = fa
		b.Rewire(netlist.CellID(2+i), 1, reg[i])
	}
	b.OutputBus("acc", reg)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Retime(n, delay.Unit(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, n, res.Netlist, 0, 100, 6)
}

func TestRegistersMatchNetlistCount(t *testing.T) {
	n := circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 4, Style: circuits.Cells})
	for stages := 0; stages <= 3; stages++ {
		g := FromNetlist(n, delay.Unit(), stages)
		c, r := g.MinPeriod()
		out := g.Apply(r, "")
		if got := g.Registers(r); got != out.NumDFFs() {
			t.Errorf("stages %d: graph predicts %d registers, netlist has %d", stages, got, out.NumDFFs())
		}
		if got := out.CriticalPathLength(delay.AsDelayFunc(delay.Unit())); got > c {
			t.Errorf("stages %d: netlist critical path %d exceeds promised period %d", stages, got, c)
		}
	}
}

func TestMoreStagesShorterPeriod(t *testing.T) {
	n := circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 6, Style: circuits.Cells})
	prevPeriod := 1 << 30
	prevRegs := -1
	for stages := 0; stages <= 4; stages++ {
		res, err := Pipeline(n, delay.Unit(), stages)
		if err != nil {
			t.Fatal(err)
		}
		if res.Period > prevPeriod {
			t.Errorf("stages %d: period %d grew from %d", stages, res.Period, prevPeriod)
		}
		if stages > 0 && res.Registers <= prevRegs {
			t.Errorf("stages %d: registers %d did not grow from %d", stages, res.Registers, prevRegs)
		}
		prevPeriod, prevRegs = res.Period, res.Registers
	}
}

func TestPipeliningKillsGlitchesAtCut(t *testing.T) {
	// The §5 claim (Figure 9): flipflops at the inputs of an operation
	// align its operand arrival times, so glitches vanish downstream.
	// Build xor(x, buf(buf(x))): the skewed reconvergence glitches every
	// time x toggles; a 1-deep pipeline re-aligns it.
	build := func() *netlist.Netlist {
		b := netlist.NewBuilder("skew")
		x := b.Input("x")
		slow := b.Buf(b.Buf(x))
		y := b.Xor(x, slow)
		b.Output("y", y)
		return b.MustBuild()
	}
	count := func(n *netlist.Netlist) (useless uint64) {
		s := sim.New(n, sim.Options{})
		mon := &uselessCounter{n: n}
		s.AttachMonitor(mon)
		for i := 0; i < 40; i++ {
			if err := s.Step(logic.Vector{logic.FromBit(uint64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return mon.useless
	}
	orig := build()
	if u := count(orig); u == 0 {
		t.Fatal("expected glitches in the skewed circuit")
	}
	res, err := Pipeline(build(), delay.Unit(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period != 1 {
		t.Fatalf("period %d, want fully pipelined 1", res.Period)
	}
	if u := count(res.Netlist); u != 0 {
		t.Errorf("fully pipelined circuit still has %d useless transitions", u)
	}
}

// uselessCounter tallies useless transitions by the parity rule without
// importing package core (which would create an import cycle in tests).
type uselessCounter struct {
	n       *netlist.Netlist
	cur     map[netlist.NetID]int
	useless uint64
}

func (u *uselessCounter) OnChange(net netlist.NetID, _, _ int, old, _ logic.V) {
	if !old.Known() || u.n.Net(net).IsPrimaryInput() {
		return
	}
	if u.cur == nil {
		u.cur = map[netlist.NetID]int{}
	}
	u.cur[net]++
}

func (u *uselessCounter) OnCycleEnd(int) {
	for net, n := range u.cur {
		if n%2 == 1 {
			u.useless += uint64(n - 1)
		} else {
			u.useless += uint64(n)
		}
		delete(u.cur, net)
	}
}

func TestApplyPanicsOnBadRetiming(t *testing.T) {
	n := circuits.NewRCA(2, circuits.Cells)
	g := FromNetlist(n, delay.Unit(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad := make([]int, g.V)
	bad[g.Host] = 1 // not normalized
	g.Apply(bad, "")
}

func TestFromNetlistNegativeLatencyPanics(t *testing.T) {
	n := circuits.NewRCA(2, circuits.Cells)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromNetlist(n, delay.Unit(), -1)
}

func TestBusNamesSurviveRetiming(t *testing.T) {
	n := circuits.NewRCA(4, circuits.Cells)
	res, err := Pipeline(n, delay.Unit(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := res.Netlist
	if len(rt.Bus("a")) != 4 || len(rt.Bus("b")) != 4 {
		t.Error("input buses lost")
	}
	if len(rt.Bus("s")) != 4 {
		t.Error("output bus lost")
	}
	if len(rt.Bus("cout")) != 1 {
		t.Error("single-bit output bus lost")
	}
}

func TestMinPeriodOf(t *testing.T) {
	n := circuits.NewRCA(8, circuits.Cells)
	if got := MinPeriodOf(n, delay.Unit()); got != 8 {
		t.Errorf("min period %d, want 8 (combinational RCA cannot be retimed faster)", got)
	}
}
