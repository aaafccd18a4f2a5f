package glitchsim

import (
	"context"
	"math"
	"strings"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/internal/stimulus"
)

func TestMeasureRCADeterministic(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	n := NewRCA(8)
	a, err := e.MeasureCircuit(ctx, CircuitFromNetlist(n), Config{Cycles: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.MeasureCircuit(ctx, CircuitFromNetlist(NewRCA(8)), Config{Cycles: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different activity:\n%v\n%v", a, b)
	}
	if a.Transitions != a.Useful+a.Useless {
		t.Error("totals inconsistent")
	}
	if a.Cycles != 200 {
		t.Errorf("cycles = %d", a.Cycles)
	}
	if !strings.Contains(a.String(), "rca8") {
		t.Error("String misses circuit name")
	}
}

func TestMeasureSeedsDiffer(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	a, _ := e.MeasureCircuit(ctx, CircuitFromNetlist(NewRCA(8)), Config{Cycles: 200, Seed: 1})
	b, _ := e.MeasureCircuit(ctx, CircuitFromNetlist(NewRCA(8)), Config{Cycles: 200, Seed: 2})
	if a.Transitions == b.Transitions {
		t.Error("different seeds gave identical transition counts (suspicious)")
	}
}

func TestMeasureRejectsWrongSourceWidth(t *testing.T) {
	if _, err := NewEngine().MeasureCircuit(context.Background(), CircuitFromNetlist(NewRCA(8)), Config{Source: stimulus.NewRandom(3, 1)}); err == nil {
		t.Fatal("expected width error")
	}
}

func TestMeasureMatchesAnalyticRCA(t *testing.T) {
	// The simulated per-cycle ratios of a 16-bit RCA must match the
	// closed forms within sampling noise (~1% at 20000 cycles).
	const cycles = 20000
	e, ctx := NewEngine(), context.Background()
	act, err := e.MeasureCircuit(ctx, CircuitFromNetlist(NewRCA(16)), Config{Cycles: cycles, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Figure5(ctx, ExperimentRequest{Width: 16, Cycles: cycles, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	wantLF := 55668.0 / 63334.0 // paper's 0.88
	if got := act.LOverF(); math.Abs(got-wantLF) > 0.03 {
		t.Errorf("simulated L/F = %.3f, analytic %.3f", got, wantLF)
	}
	perCycle := float64(act.Transitions) / cycles
	if math.Abs(perCycle-29.75) > 0.3 {
		t.Errorf("transitions/cycle = %.2f, analytic 29.75", perCycle)
	}
}

func TestWorstCase(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	for _, n := range []int{2, 4, 8, 16} {
		res, err := e.WorstCase(ctx, ExperimentRequest{Width: n})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimelineSumTransitions != n || res.TimelineCarryTransitions != n {
			t.Errorf("N=%d: timeline transitions (%d,%d), want (%d,%d)",
				n, res.TimelineSumTransitions, res.TimelineCarryTransitions, n, n)
		}
		if res.SimSumTransitions != n || res.SimCarryTransitions != n {
			t.Errorf("N=%d: simulated transitions (%d,%d), want (%d,%d)",
				n, res.SimSumTransitions, res.SimCarryTransitions, n, n)
		}
		if res.Probability != 3*math.Pow(0.125, float64(n)) {
			t.Errorf("N=%d: probability %v", n, res.Probability)
		}
	}
	if _, err := e.WorstCase(ctx, ExperimentRequest{Width: 1}); err == nil {
		t.Error("expected error for N=1")
	}
}

func TestFigure5SimTracksAnalytic(t *testing.T) {
	const cycles = 4000
	res, err := NewEngine().Figure5(context.Background(), ExperimentRequest{Width: 16, Cycles: cycles, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Exact paper totals from the analytic side.
	if res.AnalyticTotal != 119002 || res.AnalyticUseful != 63334 || res.AnalyticUseless != 55668 {
		t.Errorf("analytic totals (%d,%d,%d), paper (119002,63334,55668)",
			res.AnalyticTotal, res.AnalyticUseful, res.AnalyticUseless)
	}
	// Simulation within 2% of analytic totals.
	if rel := math.Abs(float64(res.Sim.Transitions)-float64(res.AnalyticTotal)) / float64(res.AnalyticTotal); rel > 0.02 {
		t.Errorf("sim total %d deviates %.1f%% from analytic %d", res.Sim.Transitions, rel*100, res.AnalyticTotal)
	}
	// Per-bit: useful counts concentrate at cycles/2 per sum bit.
	if len(res.Bits) != 32 {
		t.Fatalf("expected 32 bit entries, got %d", len(res.Bits))
	}
	for _, b := range res.Bits {
		if b.Kind != "sum" {
			continue
		}
		if math.Abs(float64(b.SimUseful)-b.AnalyticUseful) > 0.05*float64(cycles) {
			t.Errorf("sum bit %d useful: sim %d vs analytic %.0f", b.Bit, b.SimUseful, b.AnalyticUseful)
		}
		if math.Abs(float64(b.SimUseless)-b.AnalyticUseless) > 0.05*float64(cycles)+10 {
			t.Errorf("sum bit %d useless: sim %d vs analytic %.0f", b.Bit, b.SimUseless, b.AnalyticUseless)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := NewEngine().Table1(context.Background(), ExperimentRequest{Cycles: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	get := func(arch string, width int) MultRow {
		for _, r := range rows {
			if r.Arch == arch && r.Width == width {
				return r
			}
		}
		t.Fatalf("missing row %s %d", arch, width)
		return MultRow{}
	}
	// Paper Table 1 shape: the wallace tree has far fewer useless
	// transitions and a far better L/F at both sizes; the imbalance of
	// the array multiplier worsens with width.
	for _, w := range []int{8, 16} {
		arr, wal := get("array", w), get("wallace", w)
		if arr.Useless <= 2*wal.Useless {
			t.Errorf("%dx%d: array useless %d not ≫ wallace %d", w, w, arr.Useless, wal.Useless)
		}
		if arr.LOverF() <= wal.LOverF() {
			t.Errorf("%dx%d: array L/F %.2f not above wallace %.2f", w, w, arr.LOverF(), wal.LOverF())
		}
	}
	if get("array", 16).LOverF() <= get("array", 8).LOverF() {
		t.Error("array L/F must grow with width (paper: 1.51 -> 3.26)")
	}
	// Paper magnitudes: 8x8 array L/F ~1.5, wallace ~0.3.
	if lf := get("array", 8).LOverF(); lf < 1.0 || lf > 2.5 {
		t.Errorf("8x8 array L/F = %.2f, paper reports 1.51", lf)
	}
	if lf := get("wallace", 8).LOverF(); lf < 0.1 || lf > 0.7 {
		t.Errorf("8x8 wallace L/F = %.2f, paper reports 0.28", lf)
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := NewEngine().Table2(context.Background(), ExperimentRequest{Cycles: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	get := func(arch string, ds int) MultRow {
		for _, r := range rows {
			if r.Arch == arch && r.DSum == ds {
				return r
			}
		}
		t.Fatalf("missing row %s %d", arch, ds)
		return MultRow{}
	}
	for _, arch := range []string{"array", "wallace"} {
		eq, dbl := get(arch, 1), get(arch, 2)
		// Useful counts are delay-independent (paper: identical columns).
		if eq.Useful != dbl.Useful {
			t.Errorf("%s: useful changed with delay model: %d vs %d", arch, eq.Useful, dbl.Useful)
		}
		// Extra imbalance adds useless transitions (paper Table 2).
		if dbl.Useless <= eq.Useless {
			t.Errorf("%s: dsum=2dcarry useless %d not above dsum=dcarry %d", arch, dbl.Useless, eq.Useless)
		}
	}
}

func TestDirectionDetector42(t *testing.T) {
	res, err := NewEngine().DirectionDetector42(context.Background(), ExperimentRequest{Cycles: 4320, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: L/F = 3.79, reduction limit 4.8. Our reconstruction has the
	// same character: several useless transitions per useful one.
	if lf := res.LOverF(); lf < 2.5 || lf > 6.5 {
		t.Errorf("direction detector L/F = %.2f, paper reports 3.79", lf)
	}
	if res.BalanceLimit != res.LOverF()+1 {
		t.Error("balance limit must be 1 + L/F")
	}
	if res.Useless < res.Useful {
		t.Error("useless must dominate in the unbalanced detector")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := NewEngine().Table3(context.Background(), ExperimentRequest{Cycles: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 circuits, got %d", len(rows))
	}
	// Circuit 1 is the input-registered original: 48 flipflops.
	if rows[0].FFs != 48 {
		t.Errorf("circuit 1 has %d FFs, want 48", rows[0].FFs)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FFs <= rows[i-1].FFs {
			t.Errorf("FF count not increasing: %d then %d", rows[i-1].FFs, rows[i].FFs)
		}
		if rows[i].Period >= rows[i-1].Period {
			t.Errorf("period not decreasing: %d then %d", rows[i-1].Period, rows[i].Period)
		}
		if rows[i].FlipflopMW <= rows[i-1].FlipflopMW {
			t.Error("FF power must rise with FF count")
		}
		if rows[i].ClockMW <= rows[i-1].ClockMW {
			t.Error("clock power must rise with FF count")
		}
		if rows[i].ClockCapPF <= rows[i-1].ClockCapPF {
			t.Error("clock capacitance must rise with FF count")
		}
		if rows[i].AreaMM2 <= rows[i-1].AreaMM2 {
			t.Error("area must rise with FF count")
		}
		if rows[i].LOverF >= rows[i-1].LOverF {
			t.Error("L/F must fall as pipelining balances paths")
		}
	}
	// Logic power falls substantially from circuit 1 to circuit 4
	// (paper: 21.8 -> 6.1 mW, a factor ≈3.6).
	if f := rows[0].LogicMW / rows[3].LogicMW; f < 1.8 {
		t.Errorf("logic power reduction factor %.2f too small", f)
	}
	// Total power has an interior minimum (paper: circuit 3).
	minIdx := 0
	for i, r := range rows {
		if r.TotalMW < rows[minIdx].TotalMW {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(rows)-1 {
		t.Errorf("total power minimum at circuit %d, want interior", minIdx+1)
	}
}

func TestAblationInertial(t *testing.T) {
	res, err := NewEngine().AblationInertial(context.Background(), ExperimentRequest{Cycles: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.B.Useless >= res.A.Useless {
		t.Errorf("inertial useless %d not below transport %d", res.B.Useless, res.A.Useless)
	}
	if res.B.Useful == 0 || res.A.Useful == 0 {
		t.Error("useful activity vanished")
	}
}

func TestAblationGranularity(t *testing.T) {
	res, err := NewEngine().AblationGranularity(context.Background(), ExperimentRequest{Width: 8, Cycles: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Gate-level has more nets, hence more total transitions.
	if res.B.Transitions <= res.A.Transitions {
		t.Errorf("gate-level transitions %d not above cell-level %d", res.B.Transitions, res.A.Transitions)
	}
}

func TestAblationZeroDelay(t *testing.T) {
	res, err := NewEngine().AblationZeroDelay(context.Background(), ExperimentRequest{Width: 16, Cycles: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The glitch-blind estimate matches useful activity, so it must
	// underestimate total activity by about 1 + L/F ≈ 1.88.
	if res.Underestimate() < 1.5 {
		t.Errorf("zero-delay underestimate factor %.2f, want ≈1.9", res.Underestimate())
	}
	if math.Abs(res.EstimatedPerCycle-res.UsefulPerCycle)/res.UsefulPerCycle > 0.05 {
		t.Errorf("zero-delay estimate %.2f should track useful/cycle %.2f",
			res.EstimatedPerCycle, res.UsefulPerCycle)
	}
}

func TestSeedSweepStability(t *testing.T) {
	rows, err := NewEngine().SeedSweep(context.Background(), ExperimentRequest{Cycles: 300, Seeds: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	for _, r := range rows {
		if r.A.LOverF() <= r.B.LOverF() {
			t.Errorf("%s: array L/F %.2f not above wallace %.2f", r.Name, r.A.LOverF(), r.B.LOverF())
		}
	}
	// L/F spread across seeds stays tight.
	lo, hi := rows[0].A.LOverF(), rows[0].A.LOverF()
	for _, r := range rows {
		lf := r.A.LOverF()
		lo, hi = math.Min(lo, lf), math.Max(hi, lf)
	}
	if (hi-lo)/lo > 0.15 {
		t.Errorf("array L/F unstable across seeds: %.2f..%.2f", lo, hi)
	}
}

func TestGraySweep(t *testing.T) {
	rows, err := NewEngine().GraySweep(context.Background(), ExperimentRequest{Cycles: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	// Gray stimulus toggles one input bit per cycle: far less activity.
	if rows[1].Transitions >= rows[0].Transitions/2 {
		t.Errorf("gray activity %d not well below random %d", rows[1].Transitions, rows[0].Transitions)
	}
}

func TestFigure10Defaults(t *testing.T) {
	res, err := NewEngine().Figure10(context.Background(), ExperimentRequest{Cycles: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Points
	if len(rows) < 5 {
		t.Fatalf("expected a sweep, got %d points", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FFs < rows[i-1].FFs {
			t.Errorf("sweep not ordered by FFs at %d", i)
		}
	}
	// Figure 10's message: an interior minimum of total power exists.
	minIdx := 0
	for i, r := range rows {
		if r.TotalMW < rows[minIdx].TotalMW {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(rows)-1 {
		t.Errorf("total power minimum at sweep point %d of %d, want interior", minIdx+1, len(rows))
	}
}

func TestMeasurePowerConsistency(t *testing.T) {
	nl := NewDirectionDetector(8, true)
	tech := DefaultTech()
	bd, act, err := NewEngine().MeasurePower(context.Background(), MeasureRequest{
		Circuit: CircuitFromNetlist(nl), Config: Config{Cycles: 100}, Tech: &tech,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bd.NumFFs != 48 || act.Cycles != 100 {
		t.Errorf("breakdown %v / activity %v inconsistent", bd, act)
	}
	if bd.LogicW <= 0 || bd.TotalW() <= bd.LogicW {
		t.Error("power components implausible")
	}
}

// TestMeasurePowerZeroCycles: power over no measured cycles is an error
// from MeasurePower and from the power sweeps, which evaluate it on
// worker goroutines where a panic would end the process.
func TestMeasurePowerZeroCycles(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	zero := Config{Cycles: ExplicitZero}
	if _, _, err := e.MeasurePower(ctx, MeasureRequest{Circuit: CircuitFromNetlist(NewRCA(4)), Config: zero}); err == nil {
		t.Error("MeasurePower over zero cycles succeeded")
	}
	if _, err := e.Table3(ctx, ExperimentRequest{Cycles: ExplicitZero}); err == nil {
		t.Error("Table3 over zero cycles succeeded")
	}
	if _, err := e.Figure10(ctx, ExperimentRequest{Cycles: ExplicitZero}); err == nil {
		t.Error("Figure10 over zero cycles succeeded")
	}
}

func TestInertialOptionReachesSimulator(t *testing.T) {
	// Same seed, inertial vs transport under heterogeneous delays must
	// differ (under pure unit delay the modes coincide by construction).
	e, ctx := NewEngine(), context.Background()
	nl := CircuitFromNetlist(NewDirectionDetector(8, false))
	a, err := e.MeasureCircuit(ctx, nl, Config{Cycles: 100, Delay: delay.Typical()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.MeasureCircuit(ctx, nl, Config{Cycles: 100, Delay: delay.Typical(), Inertial: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Transitions == b.Transitions {
		t.Error("inertial flag appears to have no effect")
	}
	if b.Useless >= a.Useless {
		t.Errorf("inertial useless %d not below transport %d", b.Useless, a.Useless)
	}
}
