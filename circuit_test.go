package glitchsim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"glitchsim/internal/registry"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

// TestCircuitThreeWaysBitIdentical is the acceptance test of the
// first-class circuit API: the same circuit described as a built
// netlist, as Verilog source and as JSON must produce bit-identical
// Activity for one seed/config, with every description after the first
// hitting the engine's compiled-netlist cache (they share one
// fingerprint).
func TestCircuitThreeWaysBitIdentical(t *testing.T) {
	n := NewRCA(8)
	var v, j strings.Builder
	if err := verilog.Write(&v, n); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}

	e := NewEngine()
	ctx := context.Background()
	cfg := Config{Cycles: 120, Seed: 9}
	refs := map[string]Circuit{
		"builder": CircuitFromNetlist(n),
		"verilog": CircuitFromVerilog([]byte(v.String())),
		"json":    CircuitFromJSON([]byte(j.String())),
		"named":   CircuitNamed("rca8"),
	}
	var want Activity
	first := true
	for how, ref := range refs {
		got, err := e.MeasureCircuit(ctx, ref, cfg)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if first {
			want, first = got, false
			continue
		}
		if got != want {
			t.Errorf("%s: activity %+v differs from %+v", how, got, want)
		}
	}
	cs := e.CacheStats()
	if cs.Misses != 1 || cs.Hits != 3 {
		t.Errorf("cache stats %+v: the four descriptions must share one compiled netlist (1 miss, 3 hits)", cs)
	}
}

// TestCircuitSourceFormsMemoize: a reused source-form Circuit parses
// once; a second measurement reuses the same *netlist.Netlist.
func TestCircuitSourceFormsMemoize(t *testing.T) {
	var v strings.Builder
	if err := verilog.Write(&v, NewRCA(4)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	c := CircuitFromVerilog([]byte(v.String()))
	n1, err := e.Resolve(c)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := e.Resolve(c)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Error("source-form circuit re-parsed on second resolution")
	}
}

// TestResolveUnknownName: unknown names error with the resolvable list.
func TestResolveUnknownName(t *testing.T) {
	e := NewEngine()
	_, err := e.Resolve(CircuitNamed("nope"))
	if err == nil || !strings.Contains(err.Error(), "rca16") {
		t.Fatalf("want error listing available circuits, got %v", err)
	}
	if _, err := e.Resolve(Circuit{}); err == nil {
		t.Fatal("zero Circuit resolved")
	}
	if _, err := e.Measure(context.Background(), MeasureRequest{Config: Config{Cycles: 1}}); err == nil {
		t.Fatal("request without circuit measured")
	}
}

// TestResolveUnknownNameLazy: a miss formats no message. The service
// tries upload module names after the engine misses, so the circuit
// list in the error is built only when the error is read. The text and
// errors.Is(err, ErrUnknownCircuit) are as before; the registry's own
// miss is lazy the same way.
func TestResolveUnknownNameLazy(t *testing.T) {
	b := netlist.NewBuilder("custom1")
	b.Output("z", b.Not(b.Input("a")))
	e := NewEngine(WithCircuitSource(fixedSource{b.MustBuild()}))
	ref := CircuitNamed("m_upload")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Resolve(ref); err == nil {
			t.Fatal("unknown name resolved")
		}
	})
	if allocs > 3 {
		t.Errorf("Resolve of an unknown name: %.0f allocations, want at most 3", allocs)
	}
	_, err := e.Resolve(ref)
	if !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("err = %v, want ErrUnknownCircuit", err)
	}
	want := fmt.Sprintf("glitchsim: unknown circuit %q (available: %s)", "m_upload", strings.Join(e.CircuitNames(), ", "))
	if err.Error() != want {
		t.Errorf("message = %q, want %q", err.Error(), want)
	}
	_, err = registry.Build("m_upload")
	if want := fmt.Sprintf("unknown circuit %q (available: %s)", "m_upload", registry.NameList()); err == nil || err.Error() != want {
		t.Errorf("registry.Build message = %v, want %q", err, want)
	}
}

// fixedSource is a test CircuitSource serving one synthetic circuit.
type fixedSource struct{ n *netlist.Netlist }

func (s fixedSource) Resolve(name string) (*netlist.Netlist, bool, error) {
	if name == s.n.Name {
		return s.n, true, nil
	}
	return nil, false, nil
}
func (s fixedSource) Names() []string { return []string{s.n.Name} }

// TestWithCircuitSource: custom sources extend (and shadow) the name
// chain and show up in CircuitNames.
func TestWithCircuitSource(t *testing.T) {
	b := netlist.NewBuilder("custom1")
	a := b.Input("a")
	b.Output("z", b.Not(a))
	custom := b.MustBuild()

	// A second source shadowing a registry name proves chain order.
	b2 := netlist.NewBuilder("rca4")
	x := b2.Input("x")
	b2.Output("z", b2.Buf(x))
	shadow := b2.MustBuild()

	e := NewEngine(WithCircuitSource(fixedSource{custom}), WithCircuitSource(fixedSource{shadow}))
	got, err := e.Resolve(CircuitNamed("custom1"))
	if err != nil || got != custom {
		t.Fatalf("custom source not consulted: %v", err)
	}
	got, err = e.Resolve(CircuitNamed("rca4"))
	if err != nil || got != shadow {
		t.Fatalf("custom source does not shadow registry: %v", err)
	}
	names := e.CircuitNames()
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "custom1") || !strings.Contains(joined, "wallace16") {
		t.Errorf("CircuitNames %v misses custom or builtin names", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("CircuitNames unsorted at %d: %v", i, names)
		}
	}
}

// TestRequestNetlistFieldWins: the deprecated Netlist field keeps its
// pre-Circuit semantics, including when both fields are set.
func TestRequestNetlistFieldWins(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	nl := NewRCA(4)
	cfg := Config{Cycles: 40, Seed: 2}
	old, err := e.Measure(ctx, MeasureRequest{Netlist: nl, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	both, err := e.Measure(ctx, MeasureRequest{Netlist: nl, Circuit: CircuitNamed("rca16"), Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if both != old {
		t.Errorf("Netlist field did not win over Circuit: %+v vs %+v", both, old)
	}
}

// TestBatchWithCircuits: jobs may mix Circuit references and raw
// netlists; a job whose reference fails to resolve carries the error
// without aborting the batch.
func TestBatchWithCircuits(t *testing.T) {
	e := NewEngine()
	jobs := []MeasureJob{
		{Circuit: CircuitNamed("rca4"), Config: Config{Cycles: 20}},
		{Circuit: CircuitFromNetlist(NewRCA(4)), Config: Config{Cycles: 20}},
		{Circuit: CircuitNamed("nope"), Config: Config{Cycles: 20}},
	}
	res, err := e.MeasureMany(context.Background(), BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", res[0].Err, res[1].Err)
	}
	if res[0].Activity != res[1].Activity {
		t.Errorf("named and raw rca4 jobs disagree: %+v vs %+v", res[0].Activity, res[1].Activity)
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "unknown circuit") {
		t.Errorf("bad job error = %v, want unknown circuit", res[2].Err)
	}
}

// TestSeedSweepWithCircuit: a named Circuit sweep matches the sweep of
// a raw netlist bit for bit.
func TestSeedSweepWithCircuit(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	seeds := []uint64{1, 2, 3}
	cfg := Config{Cycles: 30}
	a, err := e.MeasureSeeds(ctx, SeedSweepRequest{Circuit: CircuitNamed("rca4"), Config: cfg, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.MeasureSeeds(ctx, SeedSweepRequest{Circuit: CircuitFromNetlist(NewRCA(4)), Config: cfg, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if a.Totals() != b.Totals() {
		t.Errorf("sweep totals differ: %+v vs %+v", a.Totals(), b.Totals())
	}
}

// TestExperimentCircuitOverride: Table3 retimes a caller-chosen subject;
// the fixed-set experiments reject the field, on the Engine and through
// a Session alike.
func TestExperimentCircuitOverride(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	sess := e.NewSessionFunc(ctx, func(Event) {})
	defer sess.Close()
	override := ExperimentRequest{Circuit: CircuitNamed("rca4")}
	for _, tc := range []struct {
		name    string
		engine  func(context.Context, ExperimentRequest) ([]MultRow, error)
		session func(ExperimentRequest) ([]MultRow, error)
	}{
		{"Table1", e.Table1, sess.Table1},
		{"Table2", e.Table2, sess.Table2},
	} {
		_, engineErr := tc.engine(ctx, override)
		_, sessErr := tc.session(override)
		if engineErr == nil || sessErr == nil || sessErr.Error() != engineErr.Error() {
			t.Errorf("%s with a Circuit: engine err %v, session err %v", tc.name, engineErr, sessErr)
		}
	}
	if _, err := e.AdderStudy(ctx, ExperimentRequest{Circuit: CircuitNamed("rca4")}); err == nil {
		t.Error("AdderStudy accepted a Circuit override")
	}
	if _, err := e.SeedSweep(ctx, ExperimentRequest{Circuit: CircuitNamed("rca4")}); err == nil {
		t.Error("SeedSweep accepted a Circuit override")
	}
	rows, err := e.Table3(ctx, ExperimentRequest{Cycles: 5, Circuit: CircuitNamed("dirdet8r")})
	if err != nil {
		t.Fatal(err)
	}
	def, err := e.Table3(ctx, ExperimentRequest{Cycles: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(def) {
		t.Fatalf("row counts differ: %d vs %d", len(rows), len(def))
	}
	for i := range rows {
		if rows[i] != def[i] {
			t.Errorf("row %d: explicit dirdet8r subject %+v differs from default %+v", i, rows[i], def[i])
		}
	}
}

// TestCircuitString: reference descriptions are stable and informative.
func TestCircuitString(t *testing.T) {
	if got := CircuitNamed("rca8").String(); got != `circuit "rca8"` {
		t.Errorf("named: %q", got)
	}
	if got := (Circuit{}).String(); got != "empty circuit" {
		t.Errorf("zero: %q", got)
	}
	if got := CircuitFromVerilog([]byte("abc")).String(); got != "verilog source (3 bytes)" {
		t.Errorf("verilog: %q", got)
	}
	if got := fmt.Sprint(CircuitFromNetlist(NewRCA(4))); got != `netlist "rca4"` {
		t.Errorf("netlist: %q", got)
	}
}

// TestCircuitParserPanic: a parser that panics on a source-form Circuit
// poisons nothing. The first resolve panics; every later one gets an
// error instead of a nil netlist, and so does a measurement of the
// Circuit.
func TestCircuitParserPanic(t *testing.T) {
	c := CircuitFromJSON([]byte(`{}`))
	boom := func([]byte) (*netlist.Netlist, error) { panic("parser bug") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the first parse did not panic")
			}
		}()
		c.memo.parse(boom)
	}()
	if n, err := c.memo.parse(boom); n != nil || err == nil {
		t.Fatalf("second parse: (%v, %v), want an error", n, err)
	}
	if _, err := NewEngine().Measure(context.Background(), MeasureRequest{Circuit: c, Config: Config{Cycles: 4}}); err == nil {
		t.Fatal("Measure of the Circuit returned no error")
	}
}
