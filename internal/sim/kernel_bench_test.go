package sim_test

import (
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/registry"
	"glitchsim/internal/retime"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// BenchmarkKernel runs the scalar kernel on the 16x16 array multiplier
// with the activity counter attached — the same workload as the root
// package's BenchmarkSimulatorThroughput, but compiled once — with the
// event queue in calendar mode (unit and full-adder-ratio delays) and
// in heap mode (delays beyond the calendar window). events/s counts
// events actually processed (Simulator.Events).
func BenchmarkKernel(b *testing.B) {
	nl := circuits.NewArrayMultiplier(16, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"calendar-unit", sim.Options{Delay: delay.Unit()}},
		{"calendar-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
		{"heap-huge", sim.Options{Delay: hugeDelays(), MaxTimePerCycle: hugeGuard}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := sim.NewFromCompiled(comp, tc.opts)
			counter := core.NewCounter(nl)
			s.AttachMonitor(counter)
			src := stimulus.NewRandom(nl.InputWidth(), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(src.Next()); err != nil {
					b.Fatal(err)
				}
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(s.Events())/secs, "events/s")
			b.ReportMetric(secs*1e9/float64(b.N), "ns/cycle")
		})
	}
}

// wideBench steps ws b.N times on 64 seeded lanes with a counter
// attached, and reports the lane throughput. One iteration is one wide
// Step = 64 simulated cycles; lane-cycles/s is directly comparable to
// BenchmarkKernel's implicit cycles/s, and lane-events/s (classified
// per-lane transitions) to its events/s.
func wideBench(b *testing.B, ws sim.WideKernel, nl *netlist.Netlist) {
	counter := core.NewWideCounter(nl)
	ws.AttachWideMonitor(counter)
	seeds := make([]uint64, sim.MaxLanes)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
	buf := make([]logic.W, nl.InputWidth())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Step(src.NextWide(buf)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	folded := counter.Counter()
	b.ReportMetric(float64(b.N*sim.MaxLanes)/secs, "lane-cycles/s")
	b.ReportMetric(float64(folded.Totals().Transitions)/secs, "lane-events/s")
	b.ReportMetric(secs*1e9/float64(b.N), "ns/wide-cycle")
}

// heavyCircuits and heavyModels span the measure-heavy workload's nine
// kernel shapes: the three 16-bit multipliers under unit,
// full-adder-ratio and typical delay.
var (
	heavyCircuits = []string{"array16", "booth16", "wallace16"}
	heavyModels   = []struct {
		name string
		dm   delay.Model
	}{{"unit", delay.Unit()}, {"fa21", delay.FullAdderRatio(2, 1)}, {"typical", delay.Typical()}}
)

// BenchmarkWideKernel runs the wide kernel on the nine measure-heavy
// shapes and on paper-sweep's four Table 3 variants (see wideBench for
// the metrics).
func BenchmarkWideKernel(b *testing.B) {
	for _, name := range heavyCircuits {
		nl, err := registry.Build(name)
		if err != nil {
			b.Fatal(err)
		}
		comp := sim.Compile(nl)
		for _, m := range heavyModels {
			b.Run(name+"/"+m.name, func(b *testing.B) { scheduleBench(b, comp, m.dm) })
		}
	}
	for _, nl := range table3Variants(b) {
		comp := sim.Compile(nl)
		b.Run(nl.Name+"/unit", func(b *testing.B) { scheduleBench(b, comp, delay.Unit()) })
	}
}

// scheduleBench runs wideBench on a wide kernel under dm.
func scheduleBench(b *testing.B, comp *sim.Compiled, dm delay.Model) {
	ws := sim.NewWideKernel(comp, sim.Options{Delay: dm})
	defer ws.Release()
	wideBench(b, ws, comp.Netlist())
}

// table3Variants returns Table 3's four circuits: dirdet8r retimed by
// retime.ForPeriod under unit delay for the periods cp, 3cp/7, cp/3 and
// 3cp/14 within 4cp pipeline stages, cp being its own clock period.
func table3Variants(b *testing.B) []*netlist.Netlist {
	nl, err := registry.Build("dirdet8r")
	if err != nil {
		b.Fatal(err)
	}
	cp := retime.FromNetlist(nl, delay.Unit(), 0).ClockPeriod(nil)
	var out []*netlist.Netlist
	for _, target := range []int{cp, cp * 3 / 7, cp / 3, cp * 3 / 14} {
		res, err := retime.ForPeriod(nl, delay.Unit(), target, 4*cp)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, res.Netlist)
	}
	return out
}

// BenchmarkWideKernelInertialZero runs the 16x16 array-multiplier
// workload in the configurations that add inertial windows or zero-delay
// batches to its schedule: inertial mode under non-uniform delays, and
// evaluated zero-delay pins (see wideBench for the metrics).
func BenchmarkWideKernelInertialZero(b *testing.B) {
	nl := circuits.NewArrayMultiplier(16, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"faratio-inertial", sim.Options{Delay: delay.FullAdderRatio(2, 1), Mode: sim.Inertial}},
		{"typical-inertial", sim.Options{Delay: delay.Typical(), Mode: sim.Inertial}},
		{"zero", sim.Options{Delay: delay.Zero()}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws := sim.NewWideKernel(comp, tc.opts)
			defer ws.Release()
			wideBench(b, ws, nl)
		})
	}
}

// BenchmarkScheduleBuild times NewSchedule on the nine measure-heavy
// shapes, per instruction.
func BenchmarkScheduleBuild(b *testing.B) {
	for _, name := range heavyCircuits {
		nl, err := registry.Build(name)
		if err != nil {
			b.Fatal(err)
		}
		comp := sim.Compile(nl)
		for _, m := range heavyModels {
			b.Run(name+"/"+m.name, func(b *testing.B) {
				dt := sim.NewDelayTable(comp, m.dm)
				var sc *sim.Schedule
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc = sim.NewSchedule(comp, sim.Options{Delays: dt})
				}
				b.StopTimer()
				instrs := float64(sc.Instructions())
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/instrs, "ns/instr")
				b.ReportMetric(float64(sc.Bytes())/instrs, "B/instr")
				b.ReportMetric(instrs, "instrs")
			})
		}
	}
}
