package sim

import (
	"sync"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// recorder is a test Monitor capturing every transition.
type recorder struct {
	changes []change
	cycles  int
}

type change struct {
	net      netlist.NetID
	cycle, t int
	old, new logic.V
}

func (r *recorder) OnChange(net netlist.NetID, cycle, t int, old, new logic.V) {
	r.changes = append(r.changes, change{net, cycle, t, old, new})
}

func (r *recorder) OnCycleEnd(cycle int) { r.cycles++ }

func (r *recorder) countFor(net netlist.NetID, cycle int) int {
	n := 0
	for _, c := range r.changes {
		if c.net == net && c.cycle == cycle && c.old.Known() {
			n++
		}
	}
	return n
}

// buildRCA builds an n-bit ripple-carry adder from compound FA cells.
func buildRCA(t *testing.T, width int) (*netlist.Netlist, []netlist.NetID) {
	t.Helper()
	b := netlist.NewBuilder("rca")
	a := b.InputBus("a", width)
	bb := b.InputBus("b", width)
	carry := b.Const(0)
	sum := make([]netlist.NetID, width)
	for i := 0; i < width; i++ {
		sum[i], carry = b.FullAdder(a[i], bb[i], carry)
	}
	b.OutputBus("s", sum)
	b.Output("cout", carry)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, append(sum, carry)
}

func TestRCAFunctional(t *testing.T) {
	const width = 8
	n, _ := buildRCA(t, width)
	s := New(n, Options{})
	rng := stimulus.NewPRNG(1)
	pi := make(logic.Vector, 2*width)
	for cycle := 0; cycle < 200; cycle++ {
		av := rng.Uintn(1 << width)
		bv := rng.Uintn(1 << width)
		copy(pi[:width], logic.VectorFromUint(av, width))
		copy(pi[width:], logic.VectorFromUint(bv, width))
		if err := s.Step(pi); err != nil {
			t.Fatal(err)
		}
		got := s.Outputs().Uint()
		if got != av+bv {
			t.Fatalf("cycle %d: %d+%d = %d, got %d", cycle, av, bv, av+bv, got)
		}
	}
}

func TestAgainstZeroDelayReference(t *testing.T) {
	// The settled state of the event-driven simulator must equal the
	// topological zero-delay evaluation for any delay model.
	const width = 6
	n, _ := buildRCA(t, width)
	for _, dm := range []delay.Model{delay.Unit(), delay.Zero(), delay.FullAdderRatio(2, 1), delay.Typical()} {
		s := New(n, Options{Delay: dm})
		ref := make([]logic.V, n.NumNets())
		rng := stimulus.NewPRNG(7)
		pi := make(logic.Vector, 2*width)
		for cycle := 0; cycle < 100; cycle++ {
			for i := range pi {
				pi[i] = logic.FromBit(rng.Uint64())
			}
			if err := s.Step(pi); err != nil {
				t.Fatal(err)
			}
			for i, id := range n.PIs {
				ref[id] = pi[i]
			}
			n.EvalOutputs(ref)
			for i := range n.Nets {
				if s.Value(netlist.NetID(i)) != ref[i] {
					t.Fatalf("model %s cycle %d: net %s = %v, ref %v",
						dm.Name(), cycle, n.Nets[i].Name, s.Value(netlist.NetID(i)), ref[i])
				}
			}
		}
	}
}

func TestWorstCaseRippleTransitions(t *testing.T) {
	// Paper Figure 3: with inputs chosen so the carry ripples through all
	// stages from an alternating carry state, S(N-1) makes N transitions.
	const width = 4
	n, outs := buildRCA(t, width)
	s := New(n, Options{Delay: delay.Unit()})
	rec := &recorder{}
	s.AttachMonitor(rec)

	// Figure 3 preconditions (§3.1): after the previous addition the
	// carries alternate, (C4,C3,C2,C1) = (0,1,0,1) — achieved by
	// A=B=0101 — and the new inputs kill the stage-0 carry while every
	// higher stage propagates: A=1110, B=0000. The carry flip then
	// ripples one stage per unit delay, toggling S3 and C4 at t=1,2,3,4.
	pi := make(logic.Vector, 2*width)
	step := func(av, bv uint64) {
		copy(pi[:width], logic.VectorFromUint(av, width))
		copy(pi[width:], logic.VectorFromUint(bv, width))
		if err := s.Step(pi); err != nil {
			t.Fatal(err)
		}
	}
	step(0b0101, 0b0101)
	step(0b1110, 0b0000)

	sN1 := outs[width-1] // S3
	if got := rec.countFor(sN1, 1); got != width {
		t.Errorf("S%d made %d transitions, want %d (worst-case ripple)", width-1, got, width)
	}
	coutN := outs[width] // C4
	if got := rec.countFor(coutN, 1); got != width {
		t.Errorf("C%d made %d transitions, want %d (worst-case ripple)", width, got, width)
	}
}

func TestGlitchOnImbalancedPaths(t *testing.T) {
	// out = AND(a, NOT a) is statically 0 but glitches 0->1->0 when a
	// rises, because the inverted path lags by one gate delay.
	b := netlist.NewBuilder("hazard")
	a := b.Input("a")
	na := b.Not(a)
	out := b.And(a, na)
	b.Output("out", out)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(n, Options{Delay: delay.Unit()})
	rec := &recorder{}
	s.AttachMonitor(rec)

	if err := s.Step(logic.Vector{logic.L0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(logic.Vector{logic.L1}); err != nil {
		t.Fatal(err)
	}
	if got := rec.countFor(out, 1); got != 2 {
		t.Errorf("hazard output made %d transitions, want 2 (a glitch)", got)
	}
	if s.Value(out) != logic.L0 {
		t.Errorf("settled value %v, want 0", s.Value(out))
	}
	// Falling edge of a: no glitch (AND output stays 0: a falls first).
	if err := s.Step(logic.Vector{logic.L0}); err != nil {
		t.Fatal(err)
	}
	if got := rec.countFor(out, 2); got != 0 {
		t.Errorf("falling edge made %d transitions, want 0", got)
	}
}

func TestInertialSwallowsNarrowPulse(t *testing.T) {
	// Pulse generator AND(a, NOT a) produces a width-1 pulse feeding a
	// buffer of delay 3: transport passes it (2 transitions), inertial
	// swallows it (0 transitions).
	build := func() (*netlist.Netlist, netlist.NetID) {
		b := netlist.NewBuilder("pulse")
		a := b.Input("a")
		p := b.And(a, b.Not(a))
		out := b.Buf(p)
		b.Output("out", out)
		n, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return n, out
	}
	dm := delay.Func{F: func(c *netlist.Cell, _ int) int {
		if c.Type == netlist.Buf {
			return 3
		}
		return 1
	}, N: "buf3"}

	for _, tc := range []struct {
		mode Mode
		want int
	}{{Transport, 2}, {Inertial, 0}} {
		n, out := build()
		s := New(n, Options{Delay: dm, Mode: tc.mode})
		rec := &recorder{}
		s.AttachMonitor(rec)
		if err := s.Step(logic.Vector{logic.L0}); err != nil {
			t.Fatal(err)
		}
		if err := s.Step(logic.Vector{logic.L1}); err != nil {
			t.Fatal(err)
		}
		if got := rec.countFor(out, 1); got != tc.want {
			t.Errorf("%v: buffered pulse made %d transitions, want %d", tc.mode, got, tc.want)
		}
	}
}

func TestZeroDelayNeverGlitches(t *testing.T) {
	const width = 8
	n, _ := buildRCA(t, width)
	s := New(n, Options{Delay: delay.Zero()})
	rec := &recorder{}
	s.AttachMonitor(rec)
	rng := stimulus.NewPRNG(3)
	pi := make(logic.Vector, 2*width)
	for cycle := 0; cycle < 50; cycle++ {
		for i := range pi {
			pi[i] = logic.FromBit(rng.Uint64())
		}
		if err := s.Step(pi); err != nil {
			t.Fatal(err)
		}
	}
	perCycle := map[[2]int]int{}
	for _, c := range rec.changes {
		perCycle[[2]int{int(c.net), c.cycle}]++
	}
	for k, v := range perCycle {
		if v > 1 {
			t.Fatalf("net %d cycle %d transitioned %d times under zero delay", k[0], k[1], v)
		}
	}
}

func TestDFFPipelineLatency(t *testing.T) {
	b := netlist.NewBuilder("pipe2")
	x := b.Input("x")
	q := b.DFFChain(x, 2)
	b.Output("q", q)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(n, Options{})
	seq := []uint64{1, 0, 1, 1, 0, 0, 1, 0}
	var got []uint64
	for _, bit := range seq {
		if err := s.Step(logic.Vector{logic.FromBit(bit)}); err != nil {
			t.Fatal(err)
		}
		got = append(got, s.Value(q).Bit())
	}
	// Latency 2, DFFs reset to 0.
	want := []uint64{0, 0, 1, 0, 1, 1, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle %d: q = %d, want %d (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestToggleFlipflop(t *testing.T) {
	// q = DFF(not q): a divide-by-two counter; legal sequential loop.
	b := netlist.NewBuilder("toggle")
	seed := b.Input("seed")
	inv := b.AddCell(netlist.Not, "inv", seed)
	q := b.DFF(inv[0])
	b.Rewire(0, 0, q) // the inverter now reads q: a sequential loop
	b.Output("q", q)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(n, Options{})
	var bits []uint64
	for i := 0; i < 6; i++ {
		if err := s.Step(logic.Vector{logic.L0}); err != nil {
			t.Fatal(err)
		}
		bits = append(bits, s.Value(q).Bit())
	}
	// During reset Q=0 and the inverter settles to D=1, so the first
	// clock edge loads 1 and the output toggles from there.
	want := []uint64{1, 0, 1, 0, 1, 0}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("toggle sequence %v, want %v", bits, want)
		}
	}
}

func TestStimulusWidthPanic(t *testing.T) {
	n, _ := buildRCA(t, 2)
	s := New(n, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	_ = s.Step(logic.Vector{logic.L0})
}

func TestInvalidNetlistPanics(t *testing.T) {
	n := &netlist.Netlist{Name: "bad"}
	n.Nets = append(n.Nets, netlist.Net{ID: 0, Name: "floating", Driver: netlist.NoCell})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid netlist")
		}
	}()
	New(n, Options{})
}

func TestSettleTimeTracksCriticalPath(t *testing.T) {
	const width = 8
	n, _ := buildRCA(t, width)
	s := New(n, Options{Delay: delay.Unit()})
	pi := make(logic.Vector, 2*width)
	// Force a full ripple: A=0xFF, B=0 then B=1.
	copy(pi[:width], logic.VectorFromUint(0xFF, width))
	copy(pi[width:], logic.VectorFromUint(0, width))
	if err := s.Step(pi); err != nil {
		t.Fatal(err)
	}
	copy(pi[width:], logic.VectorFromUint(1, width))
	if err := s.Step(pi); err != nil {
		t.Fatal(err)
	}
	if s.SettleTime() != width {
		t.Errorf("settle time %d, want %d (full carry ripple)", s.SettleTime(), width)
	}
	if s.SettleTime() > n.CriticalPathLength(delay.AsDelayFunc(delay.Unit())) {
		t.Error("settled later than the static critical path")
	}
}

func TestGuardTripsOnSlowSettle(t *testing.T) {
	// An 8-bit RCA needs up to 8 time units to settle; a guard of 3 must
	// abort the cycle with a descriptive error instead of hanging.
	n, _ := buildRCA(t, 8)
	s := New(n, Options{MaxTimePerCycle: 3})
	pi := make(logic.Vector, 16)
	copy(pi[:8], logic.VectorFromUint(0xFF, 8))
	if err := s.Step(pi); err != nil {
		t.Fatalf("first step should settle within guard: %v", err)
	}
	copy(pi[8:], logic.VectorFromUint(1, 8)) // full carry ripple
	err := s.Step(pi)
	if err == nil {
		t.Fatal("expected guard error")
	}
	if want := "did not settle"; err != nil && !containsStr(err.Error(), want) {
		t.Errorf("error %q missing %q", err, want)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMonitorCycleEnds(t *testing.T) {
	n, _ := buildRCA(t, 2)
	s := New(n, Options{})
	rec := &recorder{}
	s.AttachMonitor(rec)
	for i := 0; i < 5; i++ {
		if err := s.Step(make(logic.Vector, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if rec.cycles != 5 {
		t.Errorf("OnCycleEnd called %d times, want 5", rec.cycles)
	}
	s.DetachMonitors()
	if err := s.Step(make(logic.Vector, 4)); err != nil {
		t.Fatal(err)
	}
	if rec.cycles != 5 {
		t.Error("detached monitor still called")
	}
}

// TestCompiledFingerprint: a Compiled reports its netlist's
// Fingerprint, also to goroutines asking at once (a Compiled is shared),
// and one built by CompileFingerprinted reports the fingerprint it was
// given, so its holder never hashes the netlist.
func TestCompiledFingerprint(t *testing.T) {
	b := netlist.NewBuilder("fp")
	b.Output("z", b.Not(b.Input("a")))
	n := b.MustBuild()
	want := n.Fingerprint()
	c := Compile(n)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.Fingerprint(); got != want {
				t.Errorf("Compile(n).Fingerprint() = %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
	if got := CompileFingerprinted(n, "known").Fingerprint(); got != "known" {
		t.Errorf("CompileFingerprinted(n, known).Fingerprint() = %s", got)
	}
}
