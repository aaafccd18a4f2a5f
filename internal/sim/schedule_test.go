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
				if got, _ := sim.SlotBytes(ks); want != 0 && got != want {
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

// TestWideSettleMatchesStep: on every registry circuit and both random
// DAGs, under unit, full-adder-ratio and typical delay, k Settle steps
// from reset leave the same state (ExportState, Cycle) as k Steps, on
// both kernels. Step 2 feeds stimulus words with X lanes, and before
// step 4 both kernels import a state with X lanes (forceX). Every state
// passes Compiled.Unsettled, the rule a checkpoint resume applies.
//
// On the schedule kernel, each Settle adds one event per net whose
// settled value changed, X → known included, and a kernel that has not
// yet seen an X lane holds 8 bytes per slot: it has not allocated its
// zero rail. A kernel at reset exports the reset state and keeps the
// reset form through an import of it (the warm-up's fast-forward).
func TestWideSettleMatchesStep(t *testing.T) {
	const xLanes = 1<<1 | 1<<17 | 1<<40
	const xStep, importStep = 2, 4
	for _, nl := range scheduleSubjects(t) {
		c := sim.Compile(nl)
		steps := 7
		if nl.NumCells() > 2000 {
			steps = 5
		}
		for _, dm := range []delay.Model{delay.Unit(), delay.FullAdderRatio(2, 1), delay.Typical()} {
			for _, kind := range []struct {
				name      string
				newKernel kernelFunc
			}{{"schedule", scheduled}, {"event", eventDriven}} {
				name := fmt.Sprintf("%s/%s/%s", nl.Name, dm.Name(), kind.name)
				opts := sim.Options{Delay: dm}
				kStep, err := kind.newKernel(c, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				kSettle, _ := kind.newKernel(c, opts)
				isSchedule := sim.ScheduleOf(kSettle) != nil
				reset := kSettle.ExportState(nil)
				if !slices.Equal(reset, kStep.ExportState(nil)) {
					t.Fatalf("%s: fresh kernels export different states", name)
				}
				if isSchedule {
					kSettle.ImportState(reset, 0)
					if step, held := sim.SlotBytes(kSettle); step != 8 || held != 8 {
						t.Fatalf("%s: at reset after importing the reset state: %d/%d bytes per slot, want 8/8", name, step, held)
					}
				}
				src := stimulus.NewWideRandom(nl.InputWidth(), seedBlock(57))
				buf := make([]logic.W, nl.InputWidth())
				before := reset
				for step := range steps {
					if step == importStep {
						st := forceX(nl, kStep.ExportState(nil), xLanes)
						kStep.ImportState(st, kStep.Cycle())
						kSettle.ImportState(st, kSettle.Cycle())
						before = st
					}
					pi := src.NextWide(buf)
					if step == xStep {
						for i := 0; i < len(pi); i += 3 {
							pi[i].Zero &^= xLanes
							pi[i].One &^= xLanes
						}
					}
					events := kSettle.Events()
					if err := kStep.Step(pi); err != nil {
						t.Fatalf("%s: step %d: %v", name, step, err)
					}
					if err := kSettle.Settle(pi); err != nil {
						t.Fatalf("%s: settle %d: %v", name, step, err)
					}
					after := kSettle.ExportState(nil)
					if !slices.Equal(after, kStep.ExportState(nil)) || kSettle.Cycle() != kStep.Cycle() {
						t.Fatalf("%s: after step %d Settle and Step left different states", name, step)
					}
					if net := c.Unsettled(after); net != netlist.NoNet {
						t.Fatalf("%s: after step %d net %s is unsettled", name, step, nl.Nets[net].Name)
					}
					if !isSchedule {
						before = after
						continue
					}
					changed := uint64(0)
					for i := range after {
						if after[i] != before[i] {
							changed++
						}
					}
					if got := kSettle.Events() - events; got != changed {
						t.Fatalf("%s: settle %d counted %d events, %d nets changed", name, step, got, changed)
					}
					if _, held := sim.SlotBytes(kSettle); step < xStep && held != 8 {
						t.Fatalf("%s: settle %d without an X lane: the kernel holds %d bytes per slot, want 8", name, step, held)
					}
					before = after
				}
				kStep.Release()
				kSettle.Release()
			}
		}
	}
}

// TestWideUnsettledStates: Compiled.Unsettled accepts the states the
// kernels settle at, also with X lanes on primary inputs and flip-flop
// outputs and the rest settled from them (forceX), and reports a state
// that contradicts a cell: one flipped lane of an internal net, an X on
// a constant net, or a lane with both rails set.
func TestWideUnsettledStates(t *testing.T) {
	for _, name := range []string{"array8", "accum16"} {
		nl := mustBuild(t, name)
		c := sim.Compile(nl)
		k := sim.NewWideKernel(c, sim.Options{})
		src := stimulus.NewWideRandom(nl.InputWidth(), seedBlock(5))
		buf := make([]logic.W, nl.InputWidth())
		for range 3 {
			if err := k.Settle(src.NextWide(buf)); err != nil {
				t.Fatal(err)
			}
		}
		st := k.ExportState(nil)
		var internal, constant netlist.NetID = netlist.NoNet, netlist.NoNet
		for _, cell := range nl.Cells {
			switch {
			case cell.Type == netlist.DFF:
			case len(cell.In) == 0:
				constant = cell.Out[0]
			case internal == netlist.NoNet:
				internal = cell.Out[0]
			}
		}
		if net := c.Unsettled(st); net != netlist.NoNet {
			t.Fatalf("%s: a settled state has net %s unsettled", name, nl.Nets[net].Name)
		}
		if net := c.Unsettled(forceX(nl, slices.Clone(st), 1<<5|1<<9)); net != netlist.NoNet {
			t.Fatalf("%s: X lanes settled from inputs and flip-flop outputs make net %s unsettled", name, nl.Nets[net].Name)
		}
		for _, tc := range []struct {
			what  string
			net   netlist.NetID
			force func(w *logic.W)
		}{
			{"a flipped lane", internal, func(w *logic.W) { w.Zero, w.One = w.Zero^8, w.One^8 }},
			{"an X lane on a constant net", constant, func(w *logic.W) { w.SetLane(7, logic.X) }},
			{"both rails set on a primary input", nl.PIs[0], func(w *logic.W) { w.Zero, w.One = w.Zero|1, w.One|1 }},
		} {
			if tc.net == netlist.NoNet {
				continue // array8 has constant cells, accum16 none
			}
			bad := slices.Clone(st)
			tc.force(&bad[tc.net])
			if c.Unsettled(bad) == netlist.NoNet {
				t.Errorf("%s: %s on net %s passes as settled", name, tc.what, nl.Nets[tc.net].Name)
			}
		}
	}

	// An X on a constant its reader masks (a OR 1 with a = 1) is caught
	// by the constant cell alone.
	b := netlist.NewBuilder("masked-constant")
	a, one := b.Input("a"), b.Const(1)
	b.Output("y", b.Or(a, one))
	nl := b.MustBuild()
	vals := make([]logic.W, nl.NumNets())
	for i := range vals {
		vals[i] = logic.SplatW(logic.L1)
	}
	vals[one].SetLane(7, logic.X)
	if net := sim.Compile(nl).Unsettled(vals); net != one {
		t.Errorf("masked constant: Unsettled = %d, want the constant net %d", net, one)
	}
}
