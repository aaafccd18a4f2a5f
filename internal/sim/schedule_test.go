package sim_test

// Schedule-kernel checks against the event kernel and against the
// potential-change sets themselves. The scalar equivalence suites
// (wide_test.go, wideevent_test.go, sequential_test.go) compare the
// schedule kernel with merged scalar runs; these compare it with the
// event kernel step by step, including the word-event count that
// budgets and admission estimates read.

import (
	"fmt"
	"slices"
	"testing"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/registry"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/internal/testutil"
	"glitchsim/netlist"
)

// scheduleSubjects returns every registry circuit plus two seeded random
// DAGs shaped like uploaded circuits.
func scheduleSubjects(t *testing.T) []*netlist.Netlist {
	var nets []*netlist.Netlist
	for _, name := range registry.Names() {
		nets = append(nets, mustBuild(t, name))
	}
	rng := stimulus.NewPRNG(2718)
	return append(nets, testutil.RandomDAG(rng), testutil.RandomDAG(rng))
}

// TestWideScheduleMatchesEventKernel: under unit, full-adder-ratio and
// typical delay, the schedule kernel's per-net statistics, Cycles,
// Events and settled values equal the event kernel's after every step,
// with the lane mask narrowed twice mid-run. Two steps feed stimulus
// words with X lanes, and once both kernels import the exported state
// with lanes of some primary inputs and flip-flops forced to X. Then every net's MaxPerCycle is
// at most |PC(n)|, and a net with at most one instant makes no useless
// transition.
//
// Along the way it checks the schedule kernel's form: one 8-byte word
// per slot after the first step from reset, 16 bytes while an X lane is
// in its state, and one word again once the X lanes have passed, unless
// a register feedback loop holds one.
func TestWideScheduleMatchesEventKernel(t *testing.T) {
	masks := []uint64{^uint64(0), 1<<37 - 1, 1<<5 - 1}
	const (
		xLanes     = 1<<1 | 1<<17 | 1<<40 // the lanes stimulus and imports force to X
		importStep = 5                    // the step after the forced-X import
	)
	xStep := func(step int) bool { return step == 2 || step == 4 }
	for _, nl := range scheduleSubjects(t) {
		c := sim.Compile(nl)
		_, feedback := c.SequentialDepth()
		steps := 12
		if nl.NumCells() > 2000 {
			steps = 8
		}
		for _, dm := range []delay.Model{delay.Unit(), delay.FullAdderRatio(2, 1), delay.Typical()} {
			name := fmt.Sprintf("%s/%s", nl.Name, dm.Name())
			opts := sim.Options{Delay: dm}
			ks, err := scheduled(c, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ke := sim.NewWideEvent(c, opts)
			cs, ce := core.NewWideCounter(nl), core.NewWideCounter(nl)
			ks.AttachWideMonitor(cs)
			ke.AttachWideMonitor(ce)
			src := stimulus.NewWideRandom(nl.InputWidth(), seedBlock(31))
			buf := make([]logic.W, nl.InputWidth())
			for step := range steps {
				mask := masks[step*len(masks)/steps]
				cs.SetLaneMask(mask)
				ce.SetLaneMask(mask)
				if step == importStep {
					st := forceX(nl, ks.ExportState(nil), xLanes)
					ks.ImportState(st, ks.Cycle())
					ke.ImportState(st, ke.Cycle())
				}
				pi := src.NextWide(buf)
				if xStep(step) {
					for i := 0; i < len(pi); i += 3 {
						pi[i].Zero &^= xLanes
						pi[i].One &^= xLanes
					}
				}
				if err := ks.Step(pi); err != nil {
					t.Fatalf("%s: schedule step %d: %v", name, step, err)
				}
				if err := ke.Step(pi); err != nil {
					t.Fatalf("%s: event step %d: %v", name, step, err)
				}
				if ks.Events() != ke.Events() {
					t.Fatalf("%s: after step %d the schedule kernel counts %d events, the event kernel %d", name, step, ks.Events(), ke.Events())
				}
				if !slices.Equal(ks.ExportState(nil), ke.ExportState(nil)) {
					t.Fatalf("%s: after step %d the kernels settled at different values", name, step)
				}
				want := 0 // bytes per slot, where the form is certain
				switch {
				case step == 0 || step == steps-1 && !feedback:
					want = 8
				case xStep(step):
					want = 16
				}
				if got := sim.SlotBytes(ks); want != 0 && got != want {
					t.Fatalf("%s: after step %d the schedule kernel steps on %d bytes per slot, want %d", name, step, got, want)
				}
			}
			if cs.Cycles() != ce.Cycles() || ks.Cycle() != ke.Cycle() {
				t.Fatalf("%s: cycles %d/%d, event kernel %d/%d", name, cs.Cycles(), ks.Cycle(), ce.Cycles(), ke.Cycle())
			}
			sc := sim.ScheduleOf(ks)
			for i := range nl.NumNets() {
				id := netlist.NetID(i)
				got, want := cs.Stats(id), ce.Stats(id)
				if got != want {
					t.Fatalf("%s: net %s stats %+v, event kernel %+v", name, nl.Nets[i].Name, got, want)
				}
				if pc := sc.Instants(id); int(got.MaxPerCycle) > pc || (pc <= 1 && got.Useless != 0) {
					t.Fatalf("%s: net %s with %d instants made %d transitions in a cycle and %d useless ones",
						name, nl.Nets[i].Name, pc, got.MaxPerCycle, got.Useless)
				}
			}
			ks.Release()
			ke.Release()
		}
	}
}

// forceX sets lanes of st, a settled state of nl, to X on every third
// primary input and flip-flop output, and settles the other nets of
// those lanes from them (netlist.EvalOutputs). The result is a state a
// kernel could have settled at: a net forced to X against the inputs of
// its cell would stay X in the event kernel until an input changed, but
// turn known in the schedule kernel at the cell's next instant.
func forceX(nl *netlist.Netlist, st []logic.W, lanes uint64) []logic.W {
	sources := slices.Clone(nl.PIs)
	for _, cell := range nl.Cells {
		if cell.Type == netlist.DFF {
			sources = append(sources, cell.Out[0])
		}
	}
	vals := make([]logic.V, len(st))
	for l := range logic.Lanes {
		if lanes>>l&1 == 0 {
			continue
		}
		for i, w := range st {
			vals[i] = w.Lane(l)
		}
		for i := 0; i < len(sources); i += 3 {
			vals[sources[i]] = logic.X
		}
		nl.EvalOutputs(vals)
		for i, v := range vals {
			st[i].SetLane(l, v)
		}
	}
	return st
}

// TestWideScheduleShape: a schedule holds one entry slot per net plus one
// per (net, instant), and one instruction per (cell, instant); under
// the typical model every registry circuit's evaluated pins have delay
// >= 1 — only its constant cells have delay 0 — so all of them run on
// the schedule kernel.
func TestWideScheduleShape(t *testing.T) {
	for _, name := range registry.Names() {
		nl := mustBuild(t, name)
		c := sim.Compile(nl)
		dt := sim.NewDelayTable(c, delay.Typical())
		if dt.MinEvaluated() < 1 {
			t.Errorf("%s: typical model evaluates a pin with delay %d", name, dt.MinEvaluated())
			continue
		}
		if !(sim.Options{Delays: dt}).Scheduled(c) {
			t.Errorf("%s: typical model not scheduled", name)
			continue
		}
		sc := sim.NewSchedule(c, dt)
		slots := 0
		for i := range nl.NumNets() {
			slots += 1 + sc.Instants(netlist.NetID(i))
		}
		if slots != sc.Slots() {
			t.Errorf("%s: %d slots, nets and instants sum to %d", name, sc.Slots(), slots)
		}
		for _, id := range nl.PIs {
			if n := sc.Instants(id); n != 1 {
				t.Errorf("%s: primary input %s has %d instants, want 1", name, nl.Nets[id].Name, n)
			}
		}
	}
}

// TestWideScheduleIndexWidths: a schedule with 32-bit slot indices —
// what a circuit with 1<<16 slots or more gets — runs bit-identically to
// the 16-bit one the registry's circuits get, on random DAGs with
// cells of up to four inputs under the typical model.
func TestWideScheduleIndexWidths(t *testing.T) {
	rng := stimulus.NewPRNG(31337)
	for trial := range 4 {
		nl := testutil.RandomNetlist(rng, testutil.RandConfig{
			Inputs: 6, Gates: 80, Outputs: 3, WithDFFs: trial%2 == 1, WithCompound: true,
		})
		c := sim.Compile(nl)
		dt := sim.NewDelayTable(c, delay.Typical())
		var stats [2]*core.Counter
		var events [2]uint64
		for w, sc := range []*sim.Schedule{sim.NewSchedule(c, dt), sim.NewScheduleInt32(c, dt)} {
			k := sim.NewWideKernel(c, sim.Options{Delays: dt, Schedule: sc})
			wc := core.NewWideCounter(nl)
			k.AttachWideMonitor(wc)
			src := stimulus.NewWideRandom(nl.InputWidth(), seedBlock(uint64(trial)))
			buf := make([]logic.W, nl.InputWidth())
			for range 10 {
				if err := k.Step(src.NextWide(buf)); err != nil {
					t.Fatal(err)
				}
			}
			stats[w], events[w] = wc.Counter(), k.Events()
		}
		if events[0] != events[1] {
			t.Fatalf("trial %d: %d events with 16-bit indices, %d with 32-bit", trial, events[0], events[1])
		}
		for i := range nl.NumNets() {
			if a, b := stats[0].Stats(netlist.NetID(i)), stats[1].Stats(netlist.NetID(i)); a != b {
				t.Fatalf("trial %d: net %s stats %+v with 16-bit indices, %+v with 32-bit", trial, nl.Nets[i].Name, a, b)
			}
		}
	}
}
