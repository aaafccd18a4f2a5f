package retime

import (
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/delay"
	"glitchsim/netlist"
)

// sweepSubject returns the paper's input-registered direction detector
// (Table 3 and Figure 10's subject) and its unit-delay clock period.
func sweepSubject() (*netlist.Netlist, int) {
	n := circuits.NewDirectionDetector(circuits.DirDetConfig{Width: 8, Style: circuits.Cells, RegisterInputs: true})
	return n, FromNetlist(n, delay.Unit(), 0).ClockPeriod(nil)
}

// BenchmarkForPeriodSweep retimes the subject for Figure 10's default
// eight targets, as one Figure 10 request does.
func BenchmarkForPeriodSweep(b *testing.B) {
	n, cp := sweepSubject()
	targets := []int{cp, cp / 2, cp / 3, cp / 4, cp / 5, cp / 7, cp / 9, cp / 12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tgt := range targets {
			if _, err := ForPeriod(n, delay.Unit(), tgt, 8*cp); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// applied keeps BenchmarkApply's result live, so the compiler cannot
// drop the call it times.
var applied *netlist.Netlist

// BenchmarkApply rebuilds the deepest default Figure 10 retiming
// (period cp/12, latency 14, about 1,200 cells) from its graph.
func BenchmarkApply(b *testing.B) {
	n, cp := sweepSubject()
	g := FromNetlist(n, delay.Unit(), 14)
	r, ok := g.Feasible(cp / 12)
	if !ok {
		b.Fatalf("period %d infeasible at latency 14", cp/12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applied = g.Apply(r, "")
	}
}
