package sim_test

// Steady-state allocation regression tests: once the event queue,
// change buffers and counter scratch have grown to the workload's
// working-set size, a simulation cycle must not allocate — on either
// kernel. A reintroduced per-cycle allocation (e.g. a batch slice that
// stops being reused) fails these tests long before it shows up in a
// benchmark graph.

import (
	"testing"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// allocTolerance is the average allocations per Step the tests accept:
// nonzero only to absorb a rare late slice growth on a workload whose
// wave sizes fluctuate.
const allocTolerance = 0.1

func TestStepAllocFree(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"calendar-unit", sim.Options{Delay: delay.Unit()}},
		{"calendar-faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
		{"heap-huge", sim.Options{Delay: hugeDelays(), MaxTimePerCycle: hugeGuard}},
	} {
		s := sim.NewFromCompiled(comp, tc.opts)
		counter := core.NewCounter(nl)
		s.AttachMonitor(counter)
		src := stimulus.NewRandom(nl.InputWidth(), 1)
		for i := 0; i < 200; i++ { // grow all scratch to steady state
			if err := s.Step(src.Next()); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := s.Step(src.Next()); err != nil {
				t.Fatal(err)
			}
		})
		if avg > allocTolerance {
			t.Errorf("%s: %.2f allocs per warmed-up Step, want 0", tc.name, avg)
		}
	}
}

// TestWideStepAllocFree: the wide kernel's step — injection,
// instructions, poll and the counting pass — must not allocate, under a
// uniform and two non-uniform delay models, in both of its forms (see
// wideAllocFree), and neither must its Settle.
func TestWideStepAllocFree(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"unit", sim.Options{Delay: delay.Unit()}},
		{"faratio", sim.Options{Delay: delay.FullAdderRatio(2, 1)}},
		{"typical-budget", sim.Options{Delay: delay.Typical(), Budget: sim.Budget{Events: 1 << 40}}},
	} {
		wideAllocFree(t, comp, tc.name, tc.opts)
	}
}

// TestWideEventStepAllocFree: the workloads the lane-masked event kernel
// used to run — inertial windows, zero-delay batches and delays beyond
// the scalar queue's calendar window — must run alloc-free on the wide
// kernel too, stepped and settled, in both forms.
func TestWideEventStepAllocFree(t *testing.T) {
	nl := circuits.NewArrayMultiplier(8, circuits.Cells)
	comp := sim.Compile(nl)
	for _, tc := range []struct {
		name string
		opts sim.Options
	}{
		{"typical", sim.Options{Delay: delay.Typical()}},
		{"faratio-inertial", sim.Options{Delay: delay.FullAdderRatio(2, 1), Mode: sim.Inertial}},
		{"typical-inertial", sim.Options{Delay: delay.Typical(), Mode: sim.Inertial}},
		{"zero", sim.Options{Delay: delay.Zero()}},
		{"zeroish", sim.Options{Delay: delay.PerType(map[netlist.CellType]int{netlist.Not: 0, netlist.Nand: 0}, 2)}},
		{"zero-sum-inertial", sim.Options{Delay: delay.FullAdderRatio(0, 5), Mode: sim.Inertial}},
		{"huge", sim.Options{Delay: hugeDelays(), MaxTimePerCycle: hugeGuard}},
	} {
		wideAllocFree(t, comp, tc.name, tc.opts)
	}
}

// wideAllocFree checks that a warmed-up wide kernel under opts steps
// without allocating in both of its forms: the one-rail steady state,
// and the three-valued form that a stimulus word with an X lane brings
// back. Nor must its Settle, on a kernel with no counter: one-rail from
// reset (re-importing the reset state before each), which never
// allocates the zero rail, and three-valued.
func wideAllocFree(t *testing.T, comp *sim.Compiled, name string, opts sim.Options) {
	t.Helper()
	nl := comp.Netlist()
	ws := sim.NewWideKernel(comp, opts)
	counter := core.NewWideCounter(nl)
	ws.AttachWideMonitor(counter)
	seeds := make([]uint64, sim.MaxLanes)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	src := stimulus.NewWideRandom(nl.InputWidth(), seeds)
	buf := make([]logic.W, nl.InputWidth())
	for i := 0; i < 100; i++ {
		if err := ws.Step(src.NextWide(buf)); err != nil {
			t.Fatal(err)
		}
	}
	for _, form := range []struct {
		name      string
		xLane     bool // lane 0 of the first input at X
		slotBytes int
	}{{"one-rail", false, 8}, {"three-valued", true, 16}} {
		step := func() {
			pi := src.NextWide(buf)
			if form.xLane {
				pi[0].SetLane(0, logic.X)
			}
			if err := ws.Step(pi); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if got, _ := sim.SlotBytes(ws); got != form.slotBytes {
			t.Fatalf("%s/%s: %d bytes per slot, want %d", name, form.name, got, form.slotBytes)
		}
		if avg := testing.AllocsPerRun(100, step); avg > allocTolerance {
			t.Errorf("%s/%s: %.2f allocs per warmed-up Step, want 0", name, form.name, avg)
		}
	}

	wk := sim.NewWideKernel(comp, opts)
	reset := wk.ExportState(nil)
	for _, form := range []struct {
		name       string
		xLane      bool // lane 0 of the first input at X; else from reset
		step, held int  // sim.SlotBytes after a Settle
	}{{"settle-reset", false, 8, 8}, {"settle-three-valued", true, 16, 16}} {
		settle := func() {
			pi := src.NextWide(buf)
			if form.xLane {
				pi[0].SetLane(0, logic.X)
			} else {
				wk.ImportState(reset, 0)
			}
			if err := wk.Settle(pi); err != nil {
				t.Fatal(err)
			}
		}
		settle()
		if step, held := sim.SlotBytes(wk); step != form.step || held != form.held {
			t.Fatalf("%s/%s: %d/%d bytes per slot stepped/held, want %d/%d", name, form.name, step, held, form.step, form.held)
		}
		if avg := testing.AllocsPerRun(100, settle); avg > allocTolerance {
			t.Errorf("%s/%s: %.2f allocs per Settle, want 0", name, form.name, avg)
		}
	}
}
