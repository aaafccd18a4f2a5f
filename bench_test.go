// Benchmark harness: one testing.B per table and figure of the paper,
// plus the ablation studies from DESIGN.md. Each benchmark regenerates
// its artifact per iteration and reports the paper-relevant quantities
// as custom metrics (L/F ratios, transition counts per cycle, power in
// milliwatts), so `go test -bench=.` reproduces the whole evaluation.
package glitchsim_test

import (
	"context"
	"fmt"
	"testing"

	"glitchsim"
	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/retime"
	"glitchsim/internal/stimulus"
)

// BenchmarkFig3WorstCase regenerates §3.1/Figure 3: the worst-case
// N-transition event of a 4-bit RCA, measured analytically and by event
// simulation.
func BenchmarkFig3WorstCase(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var last glitchsim.WorstCaseResult
	for i := 0; i < b.N; i++ {
		res, err := e.WorstCase(ctx, glitchsim.ExperimentRequest{Width: 4})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.SimSumTransitions), "worstS3_transitions")
	b.ReportMetric(float64(last.SimCarryTransitions), "worstC4_transitions")
	b.ReportMetric(last.Probability, "probability")
}

// BenchmarkFig5RCA regenerates Figure 5: the 16-bit RCA under 4000
// random inputs, analytic and simulated totals.
func BenchmarkFig5RCA(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var last glitchsim.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := e.Figure5(ctx, glitchsim.ExperimentRequest{Width: 16, Cycles: 4000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.AnalyticTotal), "analytic_total")
	b.ReportMetric(float64(last.Sim.Transitions), "sim_total")
	b.ReportMetric(last.Sim.LOverF(), "sim_L/F")
}

// BenchmarkTable1 regenerates Table 1 row by row: array vs wallace,
// 8x8 and 16x16, 500 random inputs, unit delay.
func BenchmarkTable1(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	for _, arch := range []string{"array", "wallace"} {
		for _, width := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s_%dx%d", arch, width, width), func(b *testing.B) {
				var last glitchsim.Activity
				for i := 0; i < b.N; i++ {
					nl := circuits.NewArrayMultiplier(width, circuits.Cells)
					if arch == "wallace" {
						nl = circuits.NewWallaceMultiplier(width, circuits.Cells)
					}
					act, err := e.MeasureCircuit(ctx, glitchsim.CircuitFromNetlist(nl), glitchsim.Config{Cycles: 500})
					if err != nil {
						b.Fatal(err)
					}
					last = act
				}
				b.ReportMetric(float64(last.Useful), "useful")
				b.ReportMetric(float64(last.Useless), "useless")
				b.ReportMetric(last.LOverF(), "L/F")
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the 8x8 multipliers with
// dsum=dcarry vs dsum=2·dcarry.
func BenchmarkTable2(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	for _, arch := range []string{"array", "wallace"} {
		for _, dsum := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s_dsum%d", arch, dsum), func(b *testing.B) {
				nl := circuits.NewArrayMultiplier(8, circuits.Cells)
				if arch == "wallace" {
					nl = circuits.NewWallaceMultiplier(8, circuits.Cells)
				}
				var dm delay.Model = delay.Unit()
				if dsum == 2 {
					dm = delay.FullAdderRatio(2, 1)
				}
				var last glitchsim.Activity
				for i := 0; i < b.N; i++ {
					act, err := e.MeasureCircuit(ctx, glitchsim.CircuitFromNetlist(nl), glitchsim.Config{Cycles: 500, Delay: dm})
					if err != nil {
						b.Fatal(err)
					}
					last = act
				}
				b.ReportMetric(float64(last.Useless), "useless")
				b.ReportMetric(last.LOverF(), "L/F")
			})
		}
	}
}

// BenchmarkDirectionDetector regenerates the §4.2 study: 4320 random
// inputs through the video direction detector.
func BenchmarkDirectionDetector(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var last glitchsim.DirDetResult
	for i := 0; i < b.N; i++ {
		res, err := e.DirectionDetector42(ctx, glitchsim.ExperimentRequest{Cycles: 4320, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Useful), "useful")
	b.ReportMetric(float64(last.Useless), "useless")
	b.ReportMetric(last.LOverF(), "L/F")
	b.ReportMetric(last.BalanceLimit, "balance_limit")
}

// benchEngines runs one experiment driver call per iteration as two
// sub-benchmarks: warm shares one Engine, filled by an untimed first
// call, so it times what a repeated request costs (only the
// measurements, since the Engine memoizes the circuits and retimings);
// cold builds a fresh Engine per iteration and times a first request,
// building, retiming and compiling included.
func benchEngines(b *testing.B, run func(*glitchsim.Engine)) {
	for _, mode := range []string{"warm", "cold"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			e := glitchsim.NewEngine()
			if mode == "warm" {
				run(e)
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if mode == "cold" {
					e = glitchsim.NewEngine()
				}
				run(e)
			}
		})
	}
}

// BenchmarkTable3 regenerates Table 3: four retimed direction-detector
// variants with the three-component power breakdown.
func BenchmarkTable3(b *testing.B) {
	ctx := context.Background()
	var rows []glitchsim.Table3Row
	benchEngines(b, func(e *glitchsim.Engine) {
		var err error
		rows, err = e.Table3(ctx, glitchsim.ExperimentRequest{Cycles: 200, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	})
	for _, r := range rows {
		b.ReportMetric(r.TotalMW, fmt.Sprintf("c%d_total_mW", r.Circuit))
		b.ReportMetric(float64(r.FFs), fmt.Sprintf("c%d_ffs", r.Circuit))
	}
}

// BenchmarkFig10 regenerates the Figure 10 sweep and reports the
// optimum point.
func BenchmarkFig10(b *testing.B) {
	ctx := context.Background()
	var rows []glitchsim.Table3Row
	benchEngines(b, func(e *glitchsim.Engine) {
		res, err := e.Figure10(ctx, glitchsim.ExperimentRequest{Cycles: 100, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Points
	})
	best := rows[0]
	for _, r := range rows {
		if r.TotalMW < best.TotalMW {
			best = r
		}
	}
	b.ReportMetric(float64(best.FFs), "optimum_ffs")
	b.ReportMetric(best.TotalMW, "optimum_total_mW")
	b.ReportMetric(float64(len(rows)), "sweep_points")
}

// BenchmarkAblationInertial measures the transport/inertial gap on the
// direction detector under heterogeneous delays (ablation A1).
func BenchmarkAblationInertial(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var last glitchsim.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := e.AblationInertial(ctx, glitchsim.ExperimentRequest{Cycles: 300, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.A.Useless), "transport_useless")
	b.ReportMetric(float64(last.B.Useless), "inertial_useless")
}

// BenchmarkAblationZeroDelay quantifies how much a glitch-blind
// probabilistic estimator undershoots the event-driven measurement
// (ablation A2).
func BenchmarkAblationZeroDelay(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var last glitchsim.ZeroDelayComparison
	for i := 0; i < b.N; i++ {
		res, err := e.AblationZeroDelay(ctx, glitchsim.ExperimentRequest{Width: 16, Cycles: 2000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.EstimatedPerCycle, "estimated_per_cycle")
	b.ReportMetric(last.MeasuredPerCycle, "measured_per_cycle")
	b.ReportMetric(last.Underestimate(), "underestimate_factor")
}

// BenchmarkAblationGranularity compares FA-cell and gate-level models of
// one RCA (ablation A4).
func BenchmarkAblationGranularity(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var last glitchsim.AblationResult
	for i := 0; i < b.N; i++ {
		res, err := e.AblationGranularity(ctx, glitchsim.ExperimentRequest{Width: 8, Cycles: 300, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.A.LOverF(), "cells_L/F")
	b.ReportMetric(last.B.LOverF(), "gates_L/F")
}

// BenchmarkSimulatorThroughput measures raw measurement throughput on
// the 16x16 array multiplier (the heaviest Table 1 workload), once per
// kernel: "scalar" pins Lanes=1 (the BENCH_kernel.json trajectory
// workload of PRs 0–2), "lanes64" is the word-parallel default. events/s
// counts classified net transitions per wall-clock second in both cases,
// so the two sub-benchmarks are directly comparable; see internal/sim's
// BenchmarkKernel and BenchmarkWideKernel for kernel-only numbers.
func BenchmarkSimulatorThroughput(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	nl := glitchsim.CircuitFromNetlist(circuits.NewArrayMultiplier(16, circuits.Cells))
	for _, tc := range []struct {
		name  string
		lanes int
	}{
		{"scalar", 1},
		{"lanes64", 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var cycles int
			var events uint64
			for i := 0; i < b.N; i++ {
				act, err := e.MeasureCircuit(ctx, nl, glitchsim.Config{Cycles: 100, Warmup: 1, Lanes: tc.lanes})
				if err != nil {
					b.Fatal(err)
				}
				cycles += act.Cycles
				events += act.Transitions
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(cycles)/secs, "cycles/s")
			b.ReportMetric(float64(events)/secs, "events/s")
			b.ReportMetric(secs*1e9/float64(cycles), "ns/cycle")
		})
	}
}

// BenchmarkMeasureLanes is the scalar-versus-word-parallel A/B on the
// full Table 1 row workload (500 vectors, unit delay, 16x16 array
// multiplier): the same measurement semantics — 64 lane streams — run
// once on the scalar kernel (Lanes=1 keeps the historical single
// stream for reference) and once on the 64-lane kernel. The interleaved
// BENCH_kernel.json lanes numbers come from this benchmark.
func BenchmarkMeasureLanes(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	nl := glitchsim.CircuitFromNetlist(circuits.NewArrayMultiplier(16, circuits.Cells))
	for _, lanes := range []int{1, 64} {
		b.Run(fmt.Sprintf("lanes%d", lanes), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.MeasureCircuit(ctx, nl, glitchsim.Config{Cycles: 500, Lanes: lanes}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureLanesNonUniform is the A/B for the wide kernel on a
// "wide-event" delay class workload that once fell back to scalar: a
// full Table 2 heavy row (16x16 array multiplier, 500 vectors,
// dsum=2·dcarry full-adder ratio delays). The A side reconstructs that
// scalar lane-by-lane fallback exactly — the same 64 lane streams and
// quotas, each with its own warm-up, simulated one after another and
// merged in lane order — and asserts the B side (one lane-decomposed
// measurement) reproduces its totals bit-identically.
func BenchmarkMeasureLanesNonUniform(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	nl := circuits.NewArrayMultiplier(16, circuits.Cells)
	circuit := glitchsim.CircuitFromNetlist(nl)
	dm := delay.FullAdderRatio(2, 1)
	const cycles, baseSeed = 500, 1
	lanes := glitchsim.MaxLanes

	// The fallback's lane decomposition: splitmix64 seeds drawn from the
	// base seed, cycles split evenly with the first cycles%lanes lanes
	// one longer.
	seeds := make([]uint64, lanes)
	sm := stimulus.NewPRNG(baseSeed)
	for l := range seeds {
		seeds[l] = sm.Uint64()
	}
	scalarFallback := func() (glitchsim.Activity, error) {
		var agg *core.Counter
		for l, seed := range seeds {
			quota := cycles / lanes
			if l < cycles%lanes {
				quota++
			}
			counter, err := e.MeasureDetailed(ctx, glitchsim.MeasureRequest{Circuit: circuit, Config: glitchsim.Config{
				Cycles: quota, Seed: seed, Delay: dm, Lanes: 1,
			}})
			if err != nil {
				return glitchsim.Activity{}, err
			}
			if agg == nil {
				agg = counter
			} else if err := agg.Merge(counter); err != nil {
				return glitchsim.Activity{}, err
			}
		}
		return glitchsim.ActivityFromCounter(nl.Name, agg), nil
	}

	wide, err := e.MeasureCircuit(ctx, circuit, glitchsim.Config{Cycles: cycles, Seed: baseSeed, Delay: dm, Lanes: lanes})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := scalarFallback()
	if err != nil {
		b.Fatal(err)
	}
	if wide != ref {
		b.Fatalf("wide-event totals diverge from the scalar fallback:\nwide:   %+v\nscalar: %+v", wide, ref)
	}

	b.Run("scalar-fallback", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			act, err := scalarFallback()
			if err != nil {
				b.Fatal(err)
			}
			events += act.Transitions
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/secs, "events/s")
	})
	b.Run("wide-event", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			act, err := e.MeasureCircuit(ctx, circuit, glitchsim.Config{Cycles: cycles, Seed: baseSeed, Delay: dm, Lanes: lanes})
			if err != nil {
				b.Fatal(err)
			}
			events += act.Transitions
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/secs, "events/s")
	})
}

// BenchmarkMeasureSmall times one small measurement through
// Engine.Measure with a warm compiled-netlist cache: 64 vectors on the
// default 64 lanes, so the run is one measured word-parallel step behind
// the default warm-up and the per-measurement fixed costs dominate. The
// cases are combinational circuits under both wide delay classes. Like
// BenchmarkMeasureHeavy, each run builds and warms its Engine under the
// -cpu setting and counts to b.N.
func BenchmarkMeasureSmall(b *testing.B) {
	for _, tc := range []struct {
		name    string
		circuit string
		dm      delay.Model
	}{
		{"rca16_unit", "rca16", delay.Unit()},
		{"booth8_typical", "booth8", delay.Typical()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := glitchsim.NewEngine()
			req := glitchsim.MeasureRequest{
				Circuit: glitchsim.CircuitNamed(tc.circuit),
				Config:  glitchsim.Config{Cycles: 64, Delay: tc.dm},
			}
			if _, err := e.Measure(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Measure(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMeasureHeavy times the kernel-bound measurement of the
// 16-bit multipliers through Engine.Measure: 1024 vectors on the
// default 64 lanes, so 16 measured word-parallel steps, under the
// full-adder ratio and typical models (wide-event) and unit delay
// (wide-lockstep). Run it with -cpu 1,2: with a free engine slot the
// measurement splits its steps across two shards. Each run builds its
// Engine under the -cpu setting, which sizes its slots (GOMAXPROCS),
// and warms its compiled cache before the timed loop. The loop counts
// to b.N rather than using b.Loop: with b.Loop, a benchmark's first run,
// which starts before -cpu is applied, measures it at the process's
// GOMAXPROCS, and the first -cpu row reports that run.
func BenchmarkMeasureHeavy(b *testing.B) {
	for _, circuit := range []string{"array16", "wallace16", "booth16"} {
		for _, m := range []struct {
			name string
			dm   delay.Model
		}{
			{"fa21", delay.FullAdderRatio(2, 1)},
			{"typical", delay.Typical()},
			{"unit", delay.Unit()},
		} {
			b.Run(circuit+"_"+m.name, func(b *testing.B) {
				e := glitchsim.NewEngine()
				req := glitchsim.MeasureRequest{
					Circuit: glitchsim.CircuitNamed(circuit),
					Config:  glitchsim.Config{Cycles: 1024, Delay: m.dm},
				}
				if _, err := e.Measure(context.Background(), req); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Measure(context.Background(), req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkNewSessionFunc times opening and closing the callback
// session every synchronous service request runs on, on an Engine
// built under the -cpu setting.
func BenchmarkNewSessionFunc(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.NewSessionFunc(ctx, func(glitchsim.Event) {}).Close()
	}
}

// BenchmarkSequential is the scalar-versus-word-parallel A/B on a
// sequential workload: the pipelined 8x8 array multiplier (91 DFFs, 4
// register levels) measured for 500 vectors under unit delay. Register
// state makes this the case the per-lane packed DFF planes exist for:
// the A side reconstructs the 64-lane scalar decomposition exactly
// (same splitmix64 lane seeds and cycle quotas, each lane's registers
// flushed by its own warm-up, merged in lane order) and the benchmark
// asserts the B side (one lockstep wide measurement) reproduces its
// totals bit-identically before timing. The interleaved
// BENCH_kernel.json sequential numbers come from this benchmark.
func BenchmarkSequential(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	nl := circuits.NewPipelinedMultiplier(8, 2, circuits.Cells)
	circuit := glitchsim.CircuitFromNetlist(nl)
	const cycles, baseSeed = 500, 1
	lanes := glitchsim.MaxLanes

	seeds := make([]uint64, lanes)
	sm := stimulus.NewPRNG(baseSeed)
	for l := range seeds {
		seeds[l] = sm.Uint64()
	}
	scalarFallback := func() (glitchsim.Activity, error) {
		var agg *core.Counter
		for l, seed := range seeds {
			quota := cycles / lanes
			if l < cycles%lanes {
				quota++
			}
			counter, err := e.MeasureDetailed(ctx, glitchsim.MeasureRequest{Circuit: circuit, Config: glitchsim.Config{
				Cycles: quota, Seed: seed, Lanes: 1,
			}})
			if err != nil {
				return glitchsim.Activity{}, err
			}
			if agg == nil {
				agg = counter
			} else if err := agg.Merge(counter); err != nil {
				return glitchsim.Activity{}, err
			}
		}
		return glitchsim.ActivityFromCounter(nl.Name, agg), nil
	}

	wide, err := e.MeasureCircuit(ctx, circuit, glitchsim.Config{Cycles: cycles, Seed: baseSeed, Lanes: lanes})
	if err != nil {
		b.Fatal(err)
	}
	ref, err := scalarFallback()
	if err != nil {
		b.Fatal(err)
	}
	if wide != ref {
		b.Fatalf("wide sequential totals diverge from the scalar lanes:\nwide:   %+v\nscalar: %+v", wide, ref)
	}

	b.Run("scalar-lanes", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			act, err := scalarFallback()
			if err != nil {
				b.Fatal(err)
			}
			events += act.Transitions
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/secs, "events/s")
	})
	b.Run("wide", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			act, err := e.MeasureCircuit(ctx, circuit, glitchsim.Config{Cycles: cycles, Seed: baseSeed, Lanes: lanes})
			if err != nil {
				b.Fatal(err)
			}
			events += act.Transitions
		}
		secs := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/secs, "events/s")
	})
}

// BenchmarkMeasureMany measures the parallel batch layer: a 16-seed
// study of the 8x8 array multiplier sharded across all CPUs, the
// many-scenario workload the batch API exists for.
func BenchmarkMeasureMany(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	nl := glitchsim.CircuitFromNetlist(circuits.NewArrayMultiplier(8, circuits.Cells))
	jobs := make([]glitchsim.MeasureJob, 16)
	for i := range jobs {
		jobs[i] = glitchsim.MeasureJob{
			Circuit: nl,
			Config:  glitchsim.Config{Cycles: 100, Warmup: 1, Seed: uint64(i + 1)},
		}
	}
	b.ResetTimer()
	var cycles int
	for i := 0; i < b.N; i++ {
		res, err := e.MeasureMany(ctx, glitchsim.BatchRequest{Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			cycles += r.Activity.Cycles
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkRetimeDirectionDetector measures the retiming engine itself:
// graph extraction, minimum-period search and netlist reconstruction.
func BenchmarkRetimeDirectionDetector(b *testing.B) {
	base := glitchsim.NewDirectionDetector(8, true)
	b.ResetTimer()
	var regs int
	for i := 0; i < b.N; i++ {
		res, err := retime.Pipeline(base, delay.Unit(), 2)
		if err != nil {
			b.Fatal(err)
		}
		regs = res.Registers
	}
	b.ReportMetric(float64(regs), "registers")
}
