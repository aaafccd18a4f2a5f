package glitchsim

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// paperRows is everything the paper sweep (Tables 1–3, Figure 10)
// returns for one request.
type paperRows struct {
	T1, T2 []MultRow
	T3     []Table3Row
	F10    Fig10Result
}

// runPaperSweep runs Table 1–3 and Figure 10 on e, through a Session
// when viaSession is set and through the Engine methods otherwise.
func runPaperSweep(t *testing.T, e *Engine, viaSession bool, req ExperimentRequest) paperRows {
	t.Helper()
	ctx := context.Background()
	table1 := func(r ExperimentRequest) ([]MultRow, error) { return e.Table1(ctx, r) }
	table2 := func(r ExperimentRequest) ([]MultRow, error) { return e.Table2(ctx, r) }
	table3 := func(r ExperimentRequest) ([]Table3Row, error) { return e.Table3(ctx, r) }
	figure10 := func(r ExperimentRequest) (Fig10Result, error) { return e.Figure10(ctx, r) }
	if viaSession {
		s := e.NewSessionFunc(ctx, func(Event) {})
		defer s.Close()
		table1, table2, table3, figure10 = s.Table1, s.Table2, s.Table3, s.Figure10
	}
	var r paperRows
	var err error
	if r.T1, err = table1(req); err != nil {
		t.Fatal(err)
	}
	if r.T2, err = table2(req); err != nil {
		t.Fatal(err)
	}
	if r.T3, err = table3(req); err != nil {
		t.Fatal(err)
	}
	if r.F10, err = figure10(req); err != nil {
		t.Fatal(err)
	}
	return r
}

// memoNetlists returns every netlist the engine's experiment memo holds,
// with the fingerprint recorded when it was memoized.
func memoNetlists(e *Engine) map[*Circuit]string {
	m := e.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[*Circuit]string)
	for el := m.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*memoEntry[derived])
		if ent.ok && ent.v.circuit.netlist != nil {
			out[&ent.v.circuit] = ent.v.circuit.fingerprint
		}
	}
	return out
}

// TestMemoWarmEqualsCold: a repeated paper sweep on one Engine, through
// the Engine and through a Session, returns a fresh Engine's rows, and
// after the first run it retimes nothing, hashes no netlist and compiles
// nothing: only measurements remain.
func TestMemoWarmEqualsCold(t *testing.T) {
	req := ExperimentRequest{Cycles: 64, Seed: 3}
	want := runPaperSweep(t, NewEngine(), false, req)

	e := NewEngine()
	for run, viaSession := range []bool{false, false, true, true} {
		hashes, retimings := e.hashes.Load(), e.retimings.Load()
		before := e.CacheStats()
		if got := runPaperSweep(t, e, viaSession, req); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (session %v): rows differ from a fresh engine's\ngot  %+v\nwant %+v", run, viaSession, got, want)
		}
		after := e.CacheStats()
		if run == 0 {
			// 4 Table 3 and 8 Figure 10 targets; 5 fixed circuits and
			// 12 retimed netlists.
			if n := e.retimings.Load(); n != 12 {
				t.Errorf("cold sweep ran %d retimings, want 12", n)
			}
			if n := e.hashes.Load(); n != 17 {
				t.Errorf("cold sweep hashed %d netlists, want 17", n)
			}
			continue
		}
		if n := e.retimings.Load() - retimings; n != 0 {
			t.Errorf("warm run %d (session %v) ran %d retimings, want 0", run, viaSession, n)
		}
		if n := e.hashes.Load() - hashes; n != 0 {
			t.Errorf("warm run %d (session %v) hashed %d netlists, want 0", run, viaSession, n)
		}
		if after.Misses != before.Misses || after.Hits == before.Hits {
			t.Errorf("warm run %d (session %v): compiled cache %+v -> %+v, want hits only", run, viaSession, before, after)
		}
	}
}

// TestMemoConcurrentFirstRequests: concurrent first sweeps on a fresh
// Engine agree row for row and run ForPeriod once per key.
func TestMemoConcurrentFirstRequests(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	req := ExperimentRequest{Cycles: 32, Seed: 5}
	const n = 8
	t3 := make([][]Table3Row, n)
	f10 := make([]Fig10Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				f10[i], err = e.Figure10(ctx, req)
				if err == nil {
					t3[i], err = e.Table3(ctx, req)
				}
			} else {
				t3[i], err = e.Table3(ctx, req)
				if err == nil {
					f10[i], err = e.Figure10(ctx, req)
				}
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(t3[i], t3[0]) || !reflect.DeepEqual(f10[i], f10[0]) {
			t.Errorf("goroutine %d rows differ from goroutine 0's", i)
		}
	}
	if got := e.retimings.Load(); got != 12 {
		t.Errorf("%d concurrent sweeps ran %d retimings, want 12 (one per key)", n, got)
	}
	if got := e.hashes.Load(); got != 13 {
		t.Errorf("%d concurrent sweeps hashed %d netlists, want 13 (subject and 12 retimings)", n, got)
	}
}

// TestMemoNetlistsImmutable: no experiment driver modifies a netlist the
// memo shares; each still hashes to the fingerprint recorded when it was
// memoized.
func TestMemoNetlistsImmutable(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	req := ExperimentRequest{Cycles: 32, Seed: 2}
	small := ExperimentRequest{Cycles: 32, Seed: 2, Width: 8}
	for name, run := range map[string]func() error{
		"WorstCase":           func() error { _, err := e.WorstCase(ctx, ExperimentRequest{}); return err },
		"Figure5":             func() error { _, err := e.Figure5(ctx, small); return err },
		"Table1":              func() error { _, err := e.Table1(ctx, req); return err },
		"Table2":              func() error { _, err := e.Table2(ctx, req); return err },
		"DirectionDetector42": func() error { _, err := e.DirectionDetector42(ctx, req); return err },
		"Table3":              func() error { _, err := e.Table3(ctx, req); return err },
		"Figure10":            func() error { _, err := e.Figure10(ctx, req); return err },
		"AblationInertial":    func() error { _, err := e.AblationInertial(ctx, req); return err },
		"AblationGranularity": func() error { _, err := e.AblationGranularity(ctx, req); return err },
		"AblationZeroDelay":   func() error { _, err := e.AblationZeroDelay(ctx, small); return err },
		"SeedSweep": func() error {
			_, err := e.SeedSweep(ctx, ExperimentRequest{Cycles: 32, Seeds: []uint64{1, 2}})
			return err
		},
		"GraySweep": func() error { _, err := e.GraySweep(ctx, req); return err },
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	held := memoNetlists(e)
	// rca4, rca8 (cells and gates), array8/16, wallace8/16, dirdet8,
	// dirdet8r and 12 retimings.
	if len(held) != 21 {
		t.Errorf("memo holds %d netlists, want 21", len(held))
	}
	for c, fp := range held {
		if got := c.netlist.Fingerprint(); got != fp {
			t.Errorf("memoized %s: fingerprint %s, recorded %s", c.netlist.Name, got, fp)
		}
	}
}

// TestMemoKeysByFingerprint: two subjects that share a module name but
// differ in structure keep their own retimings, on one Engine as on
// fresh ones.
func TestMemoKeysByFingerprint(t *testing.T) {
	ctx := context.Background()
	a, b := NewRCA(4), NewRCA(6)
	a.Name, b.Name = "upload", "upload"
	req := func(c Circuit) ExperimentRequest {
		return ExperimentRequest{Cycles: 32, Circuit: c, Targets: []int{3, 2}}
	}
	fresh := func(c Circuit) Fig10Result {
		res, err := NewEngine().Figure10(ctx, req(c))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantA, wantB := fresh(CircuitFromNetlist(a)), fresh(CircuitFromNetlist(b))
	if reflect.DeepEqual(wantA.Points, wantB.Points) {
		t.Fatal("the two subjects give identical sweeps; the test cannot tell their keys apart")
	}
	e := NewEngine()
	for _, tc := range []struct {
		c    Circuit
		want Fig10Result
	}{{CircuitFromNetlist(a), wantA}, {CircuitFromNetlist(b), wantB}, {CircuitFromNetlist(a), wantA}} {
		got, err := e.Figure10(ctx, req(tc.c))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: shared engine rows %+v, fresh engine %+v", tc.c, got.Points, tc.want.Points)
		}
	}
}

// TestMemoBounds: a disabled memo and one smaller than a sweep's working
// set give the default Engine's rows.
func TestMemoBounds(t *testing.T) {
	req := ExperimentRequest{Cycles: 32, Seed: 9}
	want := runPaperSweep(t, NewEngine(), false, req)
	for _, size := range []int{0, 2} {
		e := NewEngine(WithCacheSize(size))
		for run := 0; run < 2; run++ {
			if got := runPaperSweep(t, e, run == 1, req); !reflect.DeepEqual(got, want) {
				t.Errorf("WithCacheSize(%d) run %d: rows differ from the default engine's", size, run)
			}
		}
		if held := e.memo.lru.Len(); held > size {
			t.Errorf("WithCacheSize(%d): memo holds %d entries", size, held)
		}
	}
}

// TestMemoErrorsNotPanics: a deterministic ForPeriod error is memoized
// like a retiming, while a computation that panics is dropped, so the
// next caller computes afresh.
func TestMemoErrorsNotPanics(t *testing.T) {
	e := NewEngine()
	subject := e.experimentCircuit(rcaCells, 4)
	for i := 0; i < 2; i++ {
		if rt := e.retimed(subject, 0, 8); rt.err == nil {
			t.Fatal("period 0 retimed without error")
		}
	}
	if n := e.retimings.Load(); n != 1 {
		t.Errorf("an unreachable period ran ForPeriod %d times, want 1", n)
	}

	m := newMemo[int](4)
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		m.get("k", func() int { panic("compute failed") })
		return false
	}()
	if !panicked {
		t.Fatal("the computation's panic did not reach its caller")
	}
	if got := m.get("k", func() int { return 7 }); got != 7 {
		t.Errorf("after a panicked computation get returned %d, want a fresh 7", got)
	}
}
