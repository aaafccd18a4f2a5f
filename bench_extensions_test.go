package glitchsim_test

import (
	"context"
	"strings"
	"testing"

	"glitchsim"
	"glitchsim/internal/balance"
	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/internal/retime"
	"glitchsim/netlist"
)

// retimeGraph builds the retiming graph of a netlist with one pipeline
// stage, shared by the retiming benchmarks.
func retimeGraph(n *netlist.Netlist) *retime.Graph {
	return retime.FromNetlist(n, delay.Unit(), 1)
}

// BenchmarkBalanceStudy measures the delay-balancing extension: the
// §4.2 "1 + L/F" limit verified by construction, with buffer overhead.
func BenchmarkBalanceStudy(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var rows []glitchsim.BalanceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.BalanceStudy(ctx, glitchsim.ExperimentRequest{Cycles: 200, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Circuit == "dirdet8" {
			b.ReportMetric(r.PredictedFactor, "predicted_factor")
			b.ReportMetric(r.CoreFactor, "core_factor")
			b.ReportMetric(float64(r.Buffers), "buffers")
		}
	}
}

// BenchmarkAdderStudy compares adder architectures for glitching.
func BenchmarkAdderStudy(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var rows []glitchsim.AdderRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.AdderStudy(ctx, glitchsim.ExperimentRequest{Width: 16, Cycles: 500, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.LOverF(), strings.ReplaceAll(r.Arch, "-", "_")+"_L/F")
	}
}

// BenchmarkCorrelationStudy quantifies the §4.2 correlation-decay claim.
func BenchmarkCorrelationStudy(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var rows []glitchsim.CorrelationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.CorrelationStudy(ctx, glitchsim.ExperimentRequest{Cycles: 2000, Seed: 99})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].LowBitAutocorr, "input_autocorr")
	b.ReportMetric(rows[1].LowBitAutocorr, "after_absdiff_autocorr")
}

// BenchmarkMultiplierStudy extends Table 1 with the Booth multiplier.
func BenchmarkMultiplierStudy(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var rows []glitchsim.AdderRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = e.MultiplierStudy(ctx, glitchsim.ExperimentRequest{Width: 8, Cycles: 500, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.LOverF(), r.Arch+"_L/F")
	}
}

// BenchmarkEstimatorComparison runs the three-way activity estimator
// ablation: zero-delay vs density propagation vs event-driven truth.
func BenchmarkEstimatorComparison(b *testing.B) {
	e, ctx := glitchsim.NewEngine(), context.Background()
	var res glitchsim.EstimatorComparison
	for i := 0; i < b.N; i++ {
		var err error
		res, err = e.CompareEstimators(ctx, glitchsim.ExperimentRequest{Width: 16, Cycles: 2000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ZeroDelay, "zero_delay_per_cycle")
	b.ReportMetric(res.Density, "density_per_cycle")
	b.ReportMetric(res.Measured, "measured_per_cycle")
}

// BenchmarkRetimeWDOracle measures the O(V^3) W/D-matrix path on a
// mid-size circuit (the FEAS production path is benchmarked separately).
func BenchmarkRetimeWDOracle(b *testing.B) {
	n := circuits.NewRCA(16, circuits.Cells)
	g := retimeGraph(n)
	b.ResetTimer()
	var c int
	for i := 0; i < b.N; i++ {
		c, _ = g.MinPeriodWD()
	}
	b.ReportMetric(float64(c), "min_period")
}

// BenchmarkBalancePad measures the balancing transform itself on the
// direction detector.
func BenchmarkBalancePad(b *testing.B) {
	n := circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells})
	b.ResetTimer()
	var buffers int
	for i := 0; i < b.N; i++ {
		res, err := balance.Pad(n, delay.Unit(), balance.Options{})
		if err != nil {
			b.Fatal(err)
		}
		buffers = res.BuffersInserted
	}
	b.ReportMetric(float64(buffers), "buffers")
}

// BenchmarkVerilogRoundTrip measures Verilog export+import of the 16x16
// Wallace multiplier.
func BenchmarkVerilogRoundTrip(b *testing.B) {
	n := circuits.NewWallaceMultiplier(16, circuits.Cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := glitchsim.ExportVerilog(&sb, n); err != nil {
			b.Fatal(err)
		}
		back, err := glitchsim.ImportVerilog(strings.NewReader(sb.String()))
		if err != nil {
			b.Fatal(err)
		}
		if back.NumCells() != n.NumCells() {
			b.Fatal("cell count changed")
		}
	}
}
