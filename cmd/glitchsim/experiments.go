package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"glitchsim"
	"glitchsim/internal/report"
	"glitchsim/internal/service"
)

// emitJSON writes v to stdout in the service layer's JSON encoding; the
// -format json path of every experiment subcommand funnels through it.
func emitJSON(v any) error { return service.WriteJSON(os.Stdout, v) }

func cmdWorstCase(args []string) error {
	fs := flag.NewFlagSet("worstcase", flag.ExitOnError)
	n := fs.Int("n", 4, "adder width in bits")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := engine.WorstCase(context.Background(),
		glitchsim.ExperimentRequest{Width: *n})
	if err != nil {
		return err
	}
	if jsonOut() {
		return emitJSON(res)
	}
	fmt.Printf("Worst case of an N=%d bit ripple-carry adder (paper §3.1, Figure 3)\n\n", res.N)
	fmt.Printf("  previous operands: A=%0*b B=%0*b (alternating carries)\n", res.N, res.PrevA, res.N, res.PrevB)
	fmt.Printf("  new operands:      A=%0*b B=%0*b (kill at stage 0, propagate above)\n\n", res.N, res.NewA, res.N, res.NewB)
	tb := report.NewTable("", "signal", "timeline model", "event-driven sim", "expected")
	tb.AddRowf(fmt.Sprintf("S%d", res.N-1), res.TimelineSumTransitions, res.SimSumTransitions, res.N)
	tb.AddRowf(fmt.Sprintf("C%d", res.N), res.TimelineCarryTransitions, res.SimCarryTransitions, res.N)
	fmt.Println(tb)
	fmt.Printf("probability of the worst case under random inputs: 3*(1/8)^%d = %.3g\n", res.N, res.Probability)
	return nil
}

func cmdFig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	n := fs.Int("n", 16, "adder width in bits")
	cycles := countVar(fs, "cycles", 4000, "`N` random input vectors")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	chart := fs.Bool("chart", true, "render bar charts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := engine.Figure5(context.Background(),
		glitchsim.ExperimentRequest{Width: *n, Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	if jsonOut() {
		return emitJSON(res)
	}
	fmt.Printf("Figure 5: %d-bit RCA, %d random inputs\n\n", res.N, res.Cycles)
	tb := report.NewTable("per-bit transitions (analytic | simulated)",
		"bit", "kind", "useful(eq)", "useless(eq)", "useful(sim)", "useless(sim)")
	for _, b := range res.Bits {
		tb.AddRowf(b.Bit, b.Kind, b.AnalyticUseful, b.AnalyticUseless, b.SimUseful, b.SimUseless)
	}
	fmt.Println(tb)
	fmt.Printf("analytic totals (paper): total=%d useful=%d useless=%d (L/F=%.2f)\n",
		res.AnalyticTotal, res.AnalyticUseful, res.AnalyticUseless,
		float64(res.AnalyticUseless)/float64(res.AnalyticUseful))
	fmt.Printf("simulated totals:        total=%d useful=%d useless=%d (L/F=%.2f)\n\n",
		res.Sim.Transitions, res.Sim.Useful, res.Sim.Useless, res.Sim.LOverF())
	if *chart {
		var labels []string
		var useful, useless report.Series
		useful.Name, useless.Name = "useful", "useless"
		for _, b := range res.Bits {
			if b.Kind != "sum" {
				continue
			}
			labels = append(labels, fmt.Sprintf("s%d", b.Bit))
			useful.Values = append(useful.Values, float64(b.SimUseful))
			useless.Values = append(useless.Values, float64(b.SimUseless))
		}
		fmt.Println(report.Chart("sum bits", labels, []report.Series{useful, useless}, 40))
	}
	return nil
}

func multTable(title string, rows []glitchsim.MultRow) *report.Table {
	tb := report.NewTable(title, "architecture", "size", "dsum/dcarry", "total", "useful F", "useless L", "L/F")
	for _, r := range rows {
		tb.AddRowf(r.Arch, fmt.Sprintf("%dx%d", r.Width, r.Width),
			fmt.Sprintf("%d/%d", r.DSum, r.DCarry),
			r.Transitions, r.Useful, r.Useless, r.LOverF())
	}
	return tb
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 500, "`N` random input vectors")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := engine.Table1(context.Background(),
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	if jsonOut() {
		return emitJSON(service.RowsResponse{Rows: service.MultRowsFrom(rows)})
	}
	fmt.Println(multTable(fmt.Sprintf("Table 1: transition activity for %d random inputs (unit delay)", *cycles), rows))
	fmt.Println("paper reference (500 inputs): array 8x8 L/F=1.51, 16x16 L/F=3.26; wallace 8x8 L/F=0.28, 16x16 L/F=0.16")
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 500, "`N` random input vectors")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := engine.Table2(context.Background(),
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	if jsonOut() {
		return emitJSON(service.RowsResponse{Rows: service.MultRowsFrom(rows)})
	}
	fmt.Println(multTable(fmt.Sprintf("Table 2: 8x8 multipliers, %d random inputs, sum/carry delay imbalance", *cycles), rows))
	fmt.Println("paper reference: array 1.46 -> 2.01, wallace 0.29 -> 0.64")
	return nil
}

func cmdDirDet(args []string) error {
	fs := flag.NewFlagSet("dirdet", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 4320, "`N` random input vectors (paper: 4320)")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := engine.DirectionDetector42(context.Background(),
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	if jsonOut() {
		return emitJSON(service.ActivityFrom(res.Activity))
	}
	fmt.Printf("Direction detector (§4.2), %d random inputs:\n\n", *cycles)
	fmt.Printf("  number of useful transitions:  %d\n", res.Useful)
	fmt.Printf("  number of useless transitions: %d\n", res.Useless)
	fmt.Printf("  ratio useless/useful:          %.2f   (paper: 3.79)\n", res.LOverF())
	fmt.Printf("  balance reduction limit:       %.1f   (paper: 4.8)\n", res.BalanceLimit)
	return nil
}

func table3Table(title string, rows []glitchsim.Table3Row) *report.Table {
	tb := report.NewTable(title,
		"circuit", "period", "latency", "#ff", "area mm2", "cclk pF",
		"logic mW", "ff mW", "clock mW", "total mW", "L/F")
	for _, r := range rows {
		tb.AddRowf(r.Circuit, r.Period, r.Latency, r.FFs, r.AreaMM2, r.ClockCapPF,
			r.LogicMW, r.FlipflopMW, r.ClockMW, r.TotalMW, r.LOverF)
	}
	return tb
}

func cmdTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 200, "`N` measured cycles per variant")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := engine.Table3(context.Background(),
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	if jsonOut() {
		return emitJSON(service.Table3Response{Rows: service.Table3RowsFrom(rows)})
	}
	fmt.Println(table3Table("Table 3: power dissipation of retimed direction detector variants", rows))
	fmt.Println("paper reference: ffs 48/174/218/350, logic 21.8/9.7/7.5/6.1 mW, total 23.2/14.5/13.4/15.5 mW (minimum at circuit 3)")
	return nil
}

func cmdFig10(args []string) error {
	fs := flag.NewFlagSet("fig10", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 120, "`N` measured cycles per point")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := engine.Figure10(context.Background(),
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	if jsonOut() {
		return emitJSON(service.Fig10From(res))
	}
	fmt.Println(table3Table(
		fmt.Sprintf("Figure 10: %s before retiming (circuit 0) and retimed sweep", res.Subject),
		append([]glitchsim.Table3Row{res.Before}, res.Points...)))
	labels := []string{fmt.Sprintf("%dff*", res.Before.FFs)}
	series := []report.Series{{Name: "total"}, {Name: "logic"}, {Name: "ff"}, {Name: "clock"}}
	for _, r := range append([]glitchsim.Table3Row{res.Before}, res.Points...) {
		series[0].Values = append(series[0].Values, r.TotalMW)
		series[1].Values = append(series[1].Values, r.LogicMW)
		series[2].Values = append(series[2].Values, r.FlipflopMW)
		series[3].Values = append(series[3].Values, r.ClockMW)
	}
	for _, r := range res.Points {
		labels = append(labels, fmt.Sprintf("%dff", r.FFs))
	}
	fmt.Println(report.Chart("power dissipation (mW) vs flipflops (* = before retiming)", labels, series, 40))
	return nil
}

func cmdAblate(args []string) error {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	cycles := countVar(fs, "cycles", 300, "`N` measured cycles")
	seed := fs.Uint64("seed", 1, "stimulus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	inert, err := engine.AblationInertial(ctx,
		glitchsim.ExperimentRequest{Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("A1 transport vs inertial (dirdet8, typical delays):\n  transport: %v\n  inertial:  %v\n\n", inert.A, inert.B)

	zd, err := engine.AblationZeroDelay(ctx,
		glitchsim.ExperimentRequest{Width: 16, Cycles: *cycles * 4, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("A2 zero-delay estimator vs event-driven (rca16):\n")
	fmt.Printf("  estimated %.2f transitions/cycle, measured %.2f (useful %.2f)\n",
		zd.EstimatedPerCycle, zd.MeasuredPerCycle, zd.UsefulPerCycle)
	fmt.Printf("  glitch-blind underestimate factor: %.2f\n\n", zd.Underestimate())

	gran, err := engine.AblationGranularity(ctx,
		glitchsim.ExperimentRequest{Width: 8, Cycles: *cycles, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("A4 FA-cell vs gate-level granularity (rca8):\n  cells: %v\n  gates: %v\n\n", gran.A, gran.B)

	gray, err := engine.GraySweep(ctx,
		glitchsim.ExperimentRequest{Cycles: *cycles})
	if err != nil {
		return err
	}
	fmt.Println("A6 stimulus statistics (dirdet8):")
	for _, g := range gray {
		fmt.Printf("  %v\n", g)
	}

	seeds, err := engine.SeedSweep(ctx,
		glitchsim.ExperimentRequest{Cycles: *cycles, Seeds: []uint64{1, 2, 3, 4, 5}})
	if err != nil {
		return err
	}
	fmt.Println("\nA5 seed sensitivity (8x8 array vs wallace L/F):")
	for _, s := range seeds {
		fmt.Printf("  %s: array %.3f, wallace %.3f\n", s.Name, s.A.LOverF(), s.B.LOverF())
	}
	return nil
}

func cmdAll(args []string) error {
	for _, c := range []struct {
		name string
		run  func([]string) error
	}{
		{"worstcase", cmdWorstCase},
		{"fig5", cmdFig5},
		{"table1", cmdTable1},
		{"table2", cmdTable2},
		{"dirdet", cmdDirDet},
		{"table3", cmdTable3},
		{"fig10", cmdFig10},
		{"ablate", cmdAblate},
		{"balance", cmdBalance},
		{"adders", cmdAdders},
		{"corr", cmdCorr},
	} {
		fmt.Printf("==================== %s ====================\n", c.name)
		if err := c.run(nil); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Println()
	}
	return nil
}
