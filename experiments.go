package glitchsim

import (
	"context"
	"fmt"
	"strconv"

	"glitchsim/internal/analytic"
	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/retime"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// The paper's experiment drivers, as Engine methods. Every driver takes
// a context and routes all measurement through the engine's compiled-
// netlist cache, worker pool and lane decomposition: with the default
// 64 lanes, a Table 1–3 row's ~500 random vectors run as ⌈500/64⌉
// word-parallel passes on the wide kernel, under unit delay and under
// the delay-imbalance models alike. Every delay model decomposes the
// vectors into the same lane streams, so delay-model comparisons like
// Table 2's useful-count invariance stay exact. Zero-valued cycle/width fields select each experiment's paper
// defaults. The drivers a Session streams (Table1–3, Figure10) each run
// through one unexported function that takes an emit callback, nil for
// the Engine method.
//
// What a driver derives without looking at the request's seed or cycle
// count comes from the Engine's experiment memo: every fixed circuit
// (experimentCircuit), the sweep subject's clock period and each of its
// retimings. A repeated request therefore only measures.

// ---------------------------------------------------------------------------
// The experiment memo.

// derived is one entry of the Engine's experiment memo: a circuit the
// drivers measure (a fixed circuit or a retiming, with its
// fingerprint), a sweep subject's clock period, or a retiming's achieved
// period and pipeline latency, or the error ForPeriod returned for it.
type derived struct {
	circuit         Circuit
	period, latency int
	err             error
}

// The families of the drivers' fixed circuits, in full-adder cells
// unless named otherwise.
const (
	rcaCells         = "rca"
	rcaGates         = "rca-gates"
	arrayMult        = "array"   // MultRow.Arch
	wallaceMult      = "wallace" // MultRow.Arch
	dirDet           = "dirdet"  // the §4.2 direction detector
	dirDetRegistered = "dirdet-registered"
)

// experimentCircuit returns the engine's shared instance of a fixed
// experiment circuit, one family at one width, built and fingerprinted
// once per engine. Callers must not modify it.
func (e *Engine) experimentCircuit(family string, width int) Circuit {
	return e.memo.get("circuit/"+family+"/"+strconv.Itoa(width), func() derived {
		var n *netlist.Netlist
		switch family {
		case rcaCells:
			n = circuits.NewRCA(width, circuits.Cells)
		case rcaGates:
			n = circuits.NewRCA(width, circuits.Gates)
		case arrayMult:
			n = circuits.NewArrayMultiplier(width, circuits.Cells)
		case wallaceMult:
			n = circuits.NewWallaceMultiplier(width, circuits.Cells)
		case dirDet, dirDetRegistered:
			n = circuits.NewDirectionDetector(circuits.DirDetConfig{
				Width: width, Style: circuits.Cells, RegisterInputs: family == dirDetRegistered,
			})
		default:
			panic("glitchsim: unknown experiment circuit family " + family)
		}
		return derived{circuit: fingerprinted(n, e.fingerprint(n))}
	}).circuit
}

// Both retiming sweeps run under unit delay, so the delay model is not
// part of the memo keys below. Should it become a parameter, it joins
// them through its sim.DelayTable digest, never its Name: delay.Func
// lets two different models share a name.

// clockPeriod returns the sweep subject's clock period, memoized by the
// subject's fingerprint.
func (e *Engine) clockPeriod(subject Circuit) int {
	return e.memo.get("period/"+subject.fingerprint, func() derived {
		return derived{period: retime.FromNetlist(subject.netlist, delay.Unit(), 0).ClockPeriod(nil)}
	}).period
}

// retimed returns retime.ForPeriod's retiming of the sweep subject for
// the target period within maxLatency pipeline stages, memoized with
// its error by (subject fingerprint, target, maxLatency).
func (e *Engine) retimed(subject Circuit, target, maxLatency int) derived {
	key := "retime/" + subject.fingerprint + "/" + strconv.Itoa(target) + "/" + strconv.Itoa(maxLatency)
	return e.memo.get(key, func() derived {
		e.retimings.Add(1)
		res, err := retime.ForPeriod(subject.netlist, delay.Unit(), target, maxLatency)
		if err != nil {
			return derived{err: err}
		}
		return derived{circuit: fingerprinted(res.Netlist, e.fingerprint(res.Netlist)), period: res.Period, latency: res.Latency}
	})
}

// ---------------------------------------------------------------------------
// E1 — §3.1 / Figure 3: worst-case transition count of a ripple-carry adder.

// WorstCaseResult describes the §3.1 worst case for an N-bit RCA.
type WorstCaseResult struct {
	N int
	// Probability that random operands trigger the worst case: 3·(1/8)^N.
	Probability float64
	// PrevA/PrevB and NewA/NewB are operands constructed to trigger it.
	PrevA, PrevB, NewA, NewB uint64
	// TimelineSumTransitions and TimelineCarryTransitions are the counts
	// on S_{N-1} and C_N from the analytic unit-delay timeline model.
	TimelineSumTransitions, TimelineCarryTransitions int
	// SimSumTransitions and SimCarryTransitions are the same counts
	// measured by the event-driven simulator. All four must equal N.
	SimSumTransitions, SimCarryTransitions int
}

// WorstCase constructs the §3.1 worst-case stimulus for an N-bit RCA
// (alternating carries from A=B=0101…, then a kill at stage 0 with all
// higher stages propagating), and measures S_{N-1} and C_N transitions
// both analytically and with the event-driven simulator. req.Width
// selects the adder width (default 4).
func (e *Engine) WorstCase(ctx context.Context, req ExperimentRequest) (WorstCaseResult, error) {
	if err := fixedCircuit("WorstCase", req); err != nil {
		return WorstCaseResult{}, err
	}
	n := req.Width
	if n == 0 {
		n = 4
	}
	if n < 2 || n > 16 {
		return WorstCaseResult{}, fmt.Errorf("glitchsim: worst case supports 2..16 bits, got %d", n)
	}
	if err := ctx.Err(); err != nil {
		return WorstCaseResult{}, err
	}
	mask := uint64(1)<<uint(n) - 1
	res := WorstCaseResult{
		N:           n,
		Probability: analytic.WorstCaseProbability(n),
		PrevA:       0x5555555555555555 & mask,
		PrevB:       0x5555555555555555 & mask,
		NewA:        (mask &^ 1),
		NewB:        0,
	}
	sums, carries := analytic.RCATimeline(n, res.PrevA, res.PrevB, res.NewA, res.NewB)
	res.TimelineSumTransitions = sums[n-1]
	res.TimelineCarryTransitions = carries[n-1]

	rca := e.experimentCircuit(rcaCells, n)
	nl := rca.netlist
	sumNet := nl.Bus("sum")[n-1]
	carryNet := nl.Bus("carry")[n-1]
	s := sim.NewFromCompiled(e.compiled(nl, rca.fingerprint), sim.Options{Delay: delay.Unit()})
	pi := make(logic.Vector, nl.InputWidth())
	apply := func(a, b uint64) error {
		copy(pi[:n], logic.VectorFromUint(a, n))
		copy(pi[n:], logic.VectorFromUint(b, n))
		return s.Step(pi)
	}
	if err := apply(res.PrevA, res.PrevB); err != nil {
		return WorstCaseResult{}, err
	}
	counter := core.NewCounterFor(nl, []netlist.NetID{sumNet, carryNet})
	s.AttachMonitor(counter)
	if err := apply(res.NewA, res.NewB); err != nil {
		return WorstCaseResult{}, err
	}
	res.SimSumTransitions = int(counter.Stats(sumNet).Transitions)
	res.SimCarryTransitions = int(counter.Stats(carryNet).Transitions)
	return res, nil
}

// ---------------------------------------------------------------------------
// E2 — Figure 5 / §3.2–3.3: per-bit useful and useless transitions of a
// 16-bit RCA under random inputs, analytic vs. simulated.

// Fig5Bit is one bar group of Figure 5.
type Fig5Bit struct {
	Bit  int
	Kind string // "sum" or "carry" (carry i is C_{i+1})
	// Analytic expected counts (equations 2–7 × cycles).
	AnalyticUseful, AnalyticUseless float64
	// Simulated counts from the event-driven run.
	SimUseful, SimUseless uint64
}

// Fig5Result holds the full Figure 5 reproduction.
type Fig5Result struct {
	N, Cycles int
	Bits      []Fig5Bit
	// Analytic totals with the paper's per-bit rounding: for N=16 and
	// 4000 cycles these are exactly 119002/63334/55668.
	AnalyticTotal, AnalyticUseful, AnalyticUseless int64
	// Simulated totals.
	Sim Activity
}

// Figure5 reproduces Figure 5: an N-bit RCA (req.Width, default 16)
// driven with req.Cycles random vectors (default 4000), classified per
// sum and carry bit, next to the closed-form prediction.
func (e *Engine) Figure5(ctx context.Context, req ExperimentRequest) (Fig5Result, error) {
	if err := fixedCircuit("Figure5", req); err != nil {
		return Fig5Result{}, err
	}
	n := req.Width
	if n == 0 {
		n = 16
	}
	cycles := req.Cycles
	if cycles == 0 {
		cycles = 4000
	}
	pred := analytic.PredictRCA(n, cycles)
	rca := e.experimentCircuit(rcaCells, n)
	counter, err := e.MeasureDetailed(ctx, MeasureRequest{
		Circuit: rca, Config: Config{Cycles: cycles, Seed: req.Seed},
	})
	if err != nil {
		return Fig5Result{}, err
	}
	res := Fig5Result{N: n, Cycles: cycles, Sim: summarize(rca.netlist.Name, counter)}
	res.AnalyticTotal, res.AnalyticUseful, res.AnalyticUseless = pred.RoundedTotals()
	sumBits := counter.BusBitStats("sum")
	carryBits := counter.BusBitStats("carry")
	for i := 0; i < n; i++ {
		res.Bits = append(res.Bits, Fig5Bit{
			Bit: i, Kind: "sum",
			AnalyticUseful:  pred.SumUseful[i],
			AnalyticUseless: pred.SumUseless[i],
			SimUseful:       sumBits[i].Useful,
			SimUseless:      sumBits[i].Useless,
		})
	}
	for i := 0; i < n; i++ {
		res.Bits = append(res.Bits, Fig5Bit{
			Bit: i, Kind: "carry",
			AnalyticUseful:  pred.CarryUseful[i],
			AnalyticUseless: pred.CarryUseless[i],
			SimUseful:       carryBits[i].Useful,
			SimUseless:      carryBits[i].Useless,
		})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// E3/E4 — Tables 1 and 2: multiplier architecture and delay-imbalance
// comparison.

// fixedCircuit rejects a Circuit override on experiment drivers whose
// circuit set is fixed by the paper, so a caller's reference is never
// silently ignored. Only the retiming power sweeps (Table3, Figure10)
// take a subject override.
func fixedCircuit(name string, req ExperimentRequest) error {
	if !req.Circuit.IsZero() {
		return fmt.Errorf("glitchsim: %s measures a fixed circuit set and takes no Circuit", name)
	}
	return nil
}

// MultRow is one column of the paper's Tables 1 and 2.
type MultRow struct {
	Arch  string // "array" or "wallace"
	Width int
	// DSum and DCarry are the full-adder cell delays used.
	DSum, DCarry int
	Activity
}

// Table1 reproduces Table 1: transition activity of array and
// Wallace-tree multipliers (8×8 and 16×16) over req.Cycles random inputs
// (default 500, the paper's run length) with unit delays. The four rows
// are measured in parallel on the engine's worker pool.
func (e *Engine) Table1(ctx context.Context, req ExperimentRequest) ([]MultRow, error) {
	return e.table1(ctx, req, nil)
}

// table1 runs Table 1 for Engine.Table1 and Session.Table1.
func (e *Engine) table1(ctx context.Context, req ExperimentRequest, emit func(Event)) ([]MultRow, error) {
	if err := fixedCircuit("Table1", req); err != nil {
		return nil, err
	}
	return e.measureMultipliers(ctx, []multSpec{
		{arrayMult, 8, 1, 1}, {arrayMult, 16, 1, 1},
		{wallaceMult, 8, 1, 1}, {wallaceMult, 16, 1, 1},
	}, req, emit)
}

// Table2 reproduces Table 2: the 8×8 multipliers with dsum = dcarry
// versus the more realistic dsum = 2·dcarry, measured in parallel on the
// engine's worker pool.
func (e *Engine) Table2(ctx context.Context, req ExperimentRequest) ([]MultRow, error) {
	return e.table2(ctx, req, nil)
}

// table2 runs Table 2 for Engine.Table2 and Session.Table2.
func (e *Engine) table2(ctx context.Context, req ExperimentRequest, emit func(Event)) ([]MultRow, error) {
	if err := fixedCircuit("Table2", req); err != nil {
		return nil, err
	}
	return e.measureMultipliers(ctx, []multSpec{
		{arrayMult, 8, 1, 1}, {arrayMult, 8, 2, 1},
		{wallaceMult, 8, 1, 1}, {wallaceMult, 8, 2, 1},
	}, req, emit)
}

// multSpec names one multiplier measurement of Tables 1 and 2.
type multSpec struct {
	arch         string // arrayMult or wallaceMult
	width        int
	dsum, dcarry int
}

// measureMultipliers measures the given multiplier specs concurrently
// and returns one row per spec, in spec order. emit, when non-nil,
// receives an EventRow per finished row (concurrently, in completion
// order).
func (e *Engine) measureMultipliers(ctx context.Context, specs []multSpec, req ExperimentRequest, emit func(Event)) ([]MultRow, error) {
	jobs := make([]MeasureJob, len(specs))
	for i, sp := range specs {
		var dm delay.Model = delay.Unit()
		if sp.dsum != sp.dcarry {
			dm = delay.FullAdderRatio(sp.dsum, sp.dcarry)
		}
		jobs[i] = MeasureJob{Circuit: e.experimentCircuit(sp.arch, sp.width), Config: Config{Cycles: req.Cycles, Seed: req.Seed, Delay: dm}}
	}
	row := func(i int, act Activity) MultRow {
		sp := specs[i]
		return MultRow{Arch: sp.arch, Width: sp.width, DSum: sp.dsum, DCarry: sp.dcarry, Activity: act}
	}
	var done func(int, *MeasureResult)
	if emit != nil {
		done = func(i int, r *MeasureResult) {
			if r.Err == nil {
				mr := row(i, r.Activity)
				emit(Event{Kind: EventRow, Index: i, Total: len(specs), Mult: &mr})
			}
		}
	}
	res, err := e.measureMany(ctx, jobs, 0, done)
	if err != nil {
		return nil, err
	}
	rows := make([]MultRow, len(specs))
	for i := range specs {
		if res[i].Err != nil {
			return nil, res[i].Err
		}
		rows[i] = row(i, res[i].Activity)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E5 — §4.2: the direction detector transition-activity study.

// DirDetResult is the §4.2 measurement.
type DirDetResult struct {
	Activity
	// BalanceLimit is 1 + L/F: the activity reduction achievable by
	// perfect delay balancing (the paper reports 4.8).
	BalanceLimit float64
}

// DirectionDetector42 reproduces §4.2: the unregistered direction
// detector simulated with unit delays under req.Cycles random inputs
// (default 4320, the paper's run length).
func (e *Engine) DirectionDetector42(ctx context.Context, req ExperimentRequest) (DirDetResult, error) {
	if err := fixedCircuit("DirectionDetector42", req); err != nil {
		return DirDetResult{}, err
	}
	cycles := req.Cycles
	if cycles == 0 {
		cycles = 4320
	}
	act, err := e.Measure(ctx, MeasureRequest{Circuit: e.experimentCircuit(dirDet, 8), Config: Config{Cycles: cycles, Seed: req.Seed}})
	if err != nil {
		return DirDetResult{}, err
	}
	return DirDetResult{Activity: act, BalanceLimit: act.BalanceLimitFactor()}, nil
}

// ---------------------------------------------------------------------------
// E6/E7 — Table 3 and Figure 10: power versus flipflop count across
// retimed direction detector variants.

// Table3Row is one circuit column of Table 3.
type Table3Row struct {
	Circuit      int
	TargetPeriod int
	Period       int
	Latency      int
	FFs          int
	AreaMM2      float64
	ClockCapPF   float64
	LogicMW      float64
	FlipflopMW   float64
	ClockMW      float64
	TotalMW      float64
	LOverF       float64
}

// sweepPlan is a retime-and-measure sweep under unit delay: the base
// circuit, the retiming period targets and the latency budget.
type sweepPlan struct {
	base       Circuit // fingerprinted
	targets    []int
	maxLatency int
}

// sweepSubject resolves the circuit a retiming power sweep operates on:
// the request's Circuit reference, fingerprinted here so its retimings
// are memoized by structure (never by name, and a netlist its caller
// mutated gets new keys), defaulting to the paper's input-registered
// direction detector.
func (e *Engine) sweepSubject(req ExperimentRequest) (Circuit, error) {
	if req.Circuit.IsZero() {
		return e.experimentCircuit(dirDetRegistered, 8), nil
	}
	nl, err := e.Resolve(req.Circuit)
	if err != nil {
		return Circuit{}, err
	}
	return fingerprinted(nl, e.fingerprint(nl)), nil
}

// Table3 reproduces Table 3: the input-registered direction detector is
// retimed for four successively higher clock frequencies (shorter
// retiming periods), and each variant's power is split into logic,
// flipflop and clock components. The first variant is the original
// circuit (registers at the inputs, the paper's 48 flipflops). The
// subject, its clock period and its retimings come from the engine's
// experiment memo, so only the first request per engine (and subject)
// builds and retimes; later ones only measure.
func (e *Engine) Table3(ctx context.Context, req ExperimentRequest) ([]Table3Row, error) {
	return e.table3(ctx, req, nil)
}

// table3 runs Table 3 for Engine.Table3 and Session.Table3: the subject
// retimed for four successively higher clock frequencies, chosen like
// the paper's four layouts so the optimum lies strictly inside the
// sweep.
func (e *Engine) table3(ctx context.Context, req ExperimentRequest, emit func(Event)) ([]Table3Row, error) {
	base, err := e.sweepSubject(req)
	if err != nil {
		return nil, err
	}
	cp := e.clockPeriod(base)
	return e.powerSweep(ctx, sweepPlan{
		base:       base,
		targets:    []int{cp, cp * 3 / 7, cp / 3, cp * 3 / 14},
		maxLatency: 4 * cp,
	}, req, emit, 0)
}

// Fig10Result is the Figure 10 experiment outcome: the subject circuit
// measured as-is (Before — the actual sequential netlist, registers and
// all, simulated without any retiming) and the retimed sweep (Points,
// one row per target period). Comparing Before against the sweep gives
// the paper's claim its honest baseline: the power cost or saving of
// retiming is read off the same circuit, not reconstructed from
// combinational slices.
type Fig10Result struct {
	// Subject names the swept circuit.
	Subject string
	// Before is the unretimed subject: Circuit 0, TargetPeriod 0,
	// Latency 0, Period the subject's own critical path.
	Before Table3Row
	// Points is the retimed sweep, one row per target period.
	Points []Table3Row
}

// measureUnretimed measures the sweep subject exactly as handed in — the
// real sequential circuit before retiming — and shapes the result as the
// sweep's row 0, whose Period is cp, the subject's own clock period. The
// default (sequential-aware) warm-up applies, so deep pipelines are
// flushed before counting.
func (e *Engine) measureUnretimed(ctx context.Context, base Circuit, cp int, req ExperimentRequest) (Table3Row, error) {
	bd, act, err := e.MeasurePower(ctx, MeasureRequest{
		Circuit: base,
		Config:  Config{Cycles: req.Cycles, Seed: req.Seed},
	})
	if err != nil {
		return Table3Row{}, err
	}
	return Table3Row{
		Circuit:      0,
		TargetPeriod: 0,
		Period:       cp,
		Latency:      0,
		FFs:          bd.NumFFs,
		AreaMM2:      bd.AreaMM2,
		ClockCapPF:   bd.ClockCapF * 1e12,
		LogicMW:      bd.LogicW * 1e3,
		FlipflopMW:   bd.FlipflopW * 1e3,
		ClockMW:      bd.ClockW * 1e3,
		TotalMW:      bd.TotalW() * 1e3,
		LOverF:       act.LOverF(),
	}, nil
}

// Figure10 measures the sweep subject before retiming and then runs the
// Table 3 sweep extended to arbitrary retiming targets (req.Targets; nil
// selects the default eight-point sweep), producing the
// power-versus-flipflops curves of Figure 10 anchored to the unretimed
// circuit. Points are ordered by increasing flipflop count. As for
// Table3, the subject's clock period and each retiming come from the
// engine's experiment memo, keyed by the subject's fingerprint, target
// period and latency budget.
func (e *Engine) Figure10(ctx context.Context, req ExperimentRequest) (Fig10Result, error) {
	return e.figure10(ctx, req, nil)
}

// figure10 runs Figure 10 for Engine.Figure10 and Session.Figure10. emit,
// when non-nil, receives the unretimed subject as EventRow 0, then the
// sweep points at Index i+1; Total counts the before row plus every
// sweep point.
func (e *Engine) figure10(ctx context.Context, req ExperimentRequest, emit func(Event)) (Fig10Result, error) {
	base, err := e.sweepSubject(req)
	if err != nil {
		return Fig10Result{}, err
	}
	cp := e.clockPeriod(base)
	targets := req.Targets
	if targets == nil {
		targets = []int{cp, cp / 2, cp / 3, cp / 4, cp / 5, cp / 7, cp / 9, cp / 12}
	}
	before, err := e.measureUnretimed(ctx, base, cp, req)
	if err != nil {
		return Fig10Result{}, err
	}
	if emit != nil {
		b := before
		emit(Event{Kind: EventRow, Index: 0, Total: len(targets) + 1, Row: &b})
	}
	points, err := e.powerSweep(ctx, sweepPlan{base: base, targets: targets, maxLatency: 8 * cp}, req, emit, 1)
	if err != nil {
		return Fig10Result{}, err
	}
	return Fig10Result{Subject: base.netlist.Name, Before: before, Points: points}, nil
}

// powerSweep retimes the plan's subject for each target period and
// measures each variant's power breakdown: the shared driver behind
// Table3 and Figure10. Each variant retimes and measures independently,
// one worker per sweep point on the engine's pool. emit, when non-nil,
// receives an EventRow per finished variant (concurrently, in completion
// order) at Index first+i, behind the first rows the caller emitted.
func (e *Engine) powerSweep(ctx context.Context, plan sweepPlan, req ExperimentRequest, emit func(Event), first int) ([]Table3Row, error) {
	rows := make([]Table3Row, len(plan.targets))
	err := parallelEachCtx(ctx, len(plan.targets), e.workerCount(0), func(i int) error {
		tgt := plan.targets[i]
		if tgt < 1 {
			tgt = 1
		}
		rt := e.retimed(plan.base, tgt, plan.maxLatency)
		if rt.err != nil {
			return fmt.Errorf("glitchsim: retiming target %d: %w", tgt, rt.err)
		}
		bd, act, err := e.MeasurePower(ctx, MeasureRequest{
			Circuit: rt.circuit,
			Config:  Config{Cycles: req.Cycles, Seed: req.Seed, Warmup: rt.latency + 16},
		})
		if err != nil {
			return err
		}
		rows[i] = Table3Row{
			Circuit:      i + 1,
			TargetPeriod: tgt,
			Period:       rt.period,
			Latency:      rt.latency,
			FFs:          bd.NumFFs,
			AreaMM2:      bd.AreaMM2,
			ClockCapPF:   bd.ClockCapF * 1e12,
			LogicMW:      bd.LogicW * 1e3,
			FlipflopMW:   bd.FlipflopW * 1e3,
			ClockMW:      bd.ClockW * 1e3,
			TotalMW:      bd.TotalW() * 1e3,
			LOverF:       act.LOverF(),
		}
		if emit != nil {
			r := rows[i]
			emit(Event{Kind: EventRow, Index: first + i, Total: first + len(plan.targets), Row: &r})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper.

// AblationResult pairs two activity measurements for comparison.
type AblationResult struct {
	Name string
	A, B Activity
}

// AblationInertial compares transport and inertial delay handling on the
// direction detector under the heterogeneous Typical delay model:
// inertial gates swallow pulses narrower than their own delay, so
// useless activity drops. (Under pure unit delay the two modes coincide:
// no pulse is ever narrower than a gate delay.)
func (e *Engine) AblationInertial(ctx context.Context, req ExperimentRequest) (AblationResult, error) {
	if err := fixedCircuit("AblationInertial", req); err != nil {
		return AblationResult{}, err
	}
	dd := e.experimentCircuit(dirDet, 8)
	a, err := e.Measure(ctx, MeasureRequest{Circuit: dd, Config: Config{Cycles: req.Cycles, Seed: req.Seed, Delay: delay.Typical()}})
	if err != nil {
		return AblationResult{}, err
	}
	b, err := e.Measure(ctx, MeasureRequest{Circuit: dd, Config: Config{Cycles: req.Cycles, Seed: req.Seed, Delay: delay.Typical(), Inertial: true}})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "transport-vs-inertial", A: a, B: b}, nil
}

// AblationGranularity compares the compound-FA-cell and gate-level
// decompositions of the same RCA (req.Width bits, default 8): finer granularity
// exposes more internal nodes and therefore more (and different)
// glitching.
func (e *Engine) AblationGranularity(ctx context.Context, req ExperimentRequest) (AblationResult, error) {
	if err := fixedCircuit("AblationGranularity", req); err != nil {
		return AblationResult{}, err
	}
	w := req.Width
	if w == 0 {
		w = 8
	}
	a, err := e.Measure(ctx, MeasureRequest{
		Circuit: e.experimentCircuit(rcaCells, w),
		Config:  Config{Cycles: req.Cycles, Seed: req.Seed},
	})
	if err != nil {
		return AblationResult{}, err
	}
	b, err := e.Measure(ctx, MeasureRequest{
		Circuit: e.experimentCircuit(rcaGates, w),
		Config:  Config{Cycles: req.Cycles, Seed: req.Seed},
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "cells-vs-gates", A: a, B: b}, nil
}

// ZeroDelayComparison quantifies how much a glitch-blind probabilistic
// estimator (zero-delay transition probabilities) underestimates the
// true event-driven activity of a circuit.
type ZeroDelayComparison struct {
	Circuit string
	// EstimatedPerCycle is the zero-delay expected transitions/cycle.
	EstimatedPerCycle float64
	// MeasuredPerCycle is the event-driven transitions/cycle.
	MeasuredPerCycle float64
	// UsefulPerCycle is the measured useful transitions/cycle, which the
	// zero-delay estimate should approximate.
	UsefulPerCycle float64
}

// Underestimate returns measured/estimated: the factor a glitch-blind
// power estimator is off by.
func (z ZeroDelayComparison) Underestimate() float64 {
	if z.EstimatedPerCycle == 0 {
		return 0
	}
	return z.MeasuredPerCycle / z.EstimatedPerCycle
}

// AblationZeroDelay runs the comparison on an N-bit RCA (req.Width,
// default 16).
func (e *Engine) AblationZeroDelay(ctx context.Context, req ExperimentRequest) (ZeroDelayComparison, error) {
	if err := fixedCircuit("AblationZeroDelay", req); err != nil {
		return ZeroDelayComparison{}, err
	}
	w := req.Width
	if w == 0 {
		w = 16
	}
	rca := e.experimentCircuit(rcaCells, w)
	est := analytic.ZeroDelayActivityTotal(rca.netlist)
	act, err := e.Measure(ctx, MeasureRequest{Circuit: rca, Config: Config{Cycles: req.Cycles, Seed: req.Seed}})
	if err != nil {
		return ZeroDelayComparison{}, err
	}
	return ZeroDelayComparison{
		Circuit:           rca.netlist.Name,
		EstimatedPerCycle: est,
		MeasuredPerCycle:  float64(act.Transitions) / float64(act.Cycles),
		UsefulPerCycle:    float64(act.Useful) / float64(act.Cycles),
	}, nil
}

// SeedSweep re-runs the Table 1 array-vs-wallace comparison (8×8) for
// several seeds, returning one pair of activities per seed — the
// seed-sensitivity ablation: L/F must be stable across streams. All
// 2·len(seeds) measurements run in parallel on the engine's pool,
// sharing one compiled form per architecture.
func (e *Engine) SeedSweep(ctx context.Context, req ExperimentRequest) ([]AblationResult, error) {
	if err := fixedCircuit("SeedSweep", req); err != nil {
		return nil, err
	}
	seeds := req.Seeds
	array := e.experimentCircuit(arrayMult, 8)
	wallace := e.experimentCircuit(wallaceMult, 8)
	jobs := make([]MeasureJob, 0, 2*len(seeds))
	for _, seed := range seeds {
		jobs = append(jobs,
			MeasureJob{Circuit: array, Config: Config{Cycles: req.Cycles, Seed: seed}},
			MeasureJob{Circuit: wallace, Config: Config{Cycles: req.Cycles, Seed: seed}},
		)
	}
	res, err := e.measureMany(ctx, jobs, 0, nil)
	if err != nil {
		return nil, err
	}
	out := make([]AblationResult, len(seeds))
	for i, seed := range seeds {
		a, b := res[2*i], res[2*i+1]
		if a.Err != nil {
			return nil, a.Err
		}
		if b.Err != nil {
			return nil, b.Err
		}
		out[i] = AblationResult{
			Name: fmt.Sprintf("seed-%d", seed), A: a.Activity, B: b.Activity,
		}
	}
	return out, nil
}

// GraySweep compares random against Gray-code (single-bit-change) and
// correlated video-like stimulus on the direction detector, probing the
// paper's claim that input correlation is destroyed by the abs-diff
// stage.
func (e *Engine) GraySweep(ctx context.Context, req ExperimentRequest) ([]Activity, error) {
	if err := fixedCircuit("GraySweep", req); err != nil {
		return nil, err
	}
	dd := e.experimentCircuit(dirDet, 8)
	w := dd.netlist.InputWidth()
	sources := []struct {
		name string
		src  stimulus.Source
	}{
		{"random", stimulus.NewRandom(w, 1)},
		{"gray", stimulus.NewGray(w)},
		{"video", stimulus.NewConcat(
			stimulus.NewCorrelated(6, 8, 3, 7),
			stimulus.NewConstant(logic.VectorFromUint(16, 8)),
		)},
	}
	jobs := make([]MeasureJob, len(sources))
	for i, s := range sources {
		jobs[i] = MeasureJob{Circuit: dd, Config: Config{Cycles: req.Cycles, Source: s.src}}
	}
	res, err := e.measureMany(ctx, jobs, 0, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Activity, len(sources))
	for i, s := range sources {
		if res[i].Err != nil {
			return nil, res[i].Err
		}
		out[i] = res[i].Activity
		out[i].Circuit = dd.netlist.Name + "/" + s.name
	}
	return out, nil
}
