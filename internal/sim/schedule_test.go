package sim_test

// Wide-kernel checks against the scalar event kernel step by step, and
// against the key sets themselves. The equivalence suites (wide_test.go,
// wideevent_test.go, sequential_test.go) compare whole runs with merged
// scalar runs; these compare every step, including the word-event count
// that budgets and admission estimates read, and the settle guard.

import (
	"errors"
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

// laneMonitor counts one scalar lane while it is active, and records
// every (net, instant) at which the lane's run changed a net in the
// current step, into a set all lanes share.
type laneMonitor struct {
	counter *core.Counter
	active  bool
	changed map[[2]int]bool
}

func (m *laneMonitor) OnChange(net netlist.NetID, cycle, t int, old, new logic.V) {
	if m.active {
		m.counter.OnChange(net, cycle, t, old, new)
	}
	m.changed[[2]int{int(net), t}] = true
}

func (m *laneMonitor) OnCycleEnd(cycle int) {
	if m.active {
		m.counter.OnCycleEnd(cycle)
	}
}

// scalarLanes is one scalar simulator per lane of a wide run, each with
// a laneMonitor.
type scalarLanes struct {
	sims     []*sim.Simulator
	monitors []*laneMonitor
	changed  map[[2]int]bool
	vec      logic.Vector
}

func newScalarLanes(c *sim.Compiled, opts sim.Options, lanes int) *scalarLanes {
	ls := &scalarLanes{changed: map[[2]int]bool{}, vec: make(logic.Vector, c.Netlist().InputWidth())}
	for range lanes {
		s := sim.NewFromCompiled(c, opts)
		m := &laneMonitor{counter: core.NewCounter(c.Netlist()), active: true, changed: ls.changed}
		s.AttachMonitor(m)
		ls.sims, ls.monitors = append(ls.sims, s), append(ls.monitors, m)
	}
	return ls
}

// step steps every lane on its part of pi and returns the number of
// (net, instant) pairs at which some lane changed a net: the word
// events of a wide step. It returns the lowest lane's error, if any.
func (ls *scalarLanes) step(pi []logic.W) (uint64, error) {
	clear(ls.changed)
	var first error
	for l, s := range ls.sims {
		for i, w := range pi {
			ls.vec[i] = w.Lane(l)
		}
		if err := s.Step(ls.vec); err != nil && first == nil {
			first = err
		}
	}
	return uint64(len(ls.changed)), first
}

// setState imports lane l of st into lane l's simulator.
func (ls *scalarLanes) setState(st []logic.W) {
	vals := make([]logic.V, len(st))
	for l, s := range ls.sims {
		for i, w := range st {
			vals[i] = w.Lane(l)
		}
		sim.SetState(s, vals)
	}
}

// merged returns the lanes' counters merged in lane order.
func (ls *scalarLanes) merged(t *testing.T) *core.Counter {
	agg := ls.monitors[0].counter
	for _, m := range ls.monitors[1:] {
		if err := agg.Merge(m.counter); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

// TestWideScheduleMatchesEventKernel: under unit, full-adder-ratio,
// typical and zero delay, and inertial typical and fa(0,5) delay, the
// wide kernel's per-lane settled values and Events equal 64 scalar event
// kernels' after every step — a wide step's events are the (net,
// instant) pairs at which some lane changed a net — and its per-net
// statistics and Cycles equal theirs merged, with the lane mask narrowed
// twice mid-run. Two steps feed stimulus words with X lanes, and once
// every kernel imports the exported state with lanes of some primary
// inputs and flip-flops forced to X. Then every net's MaxPerCycle is at
// most its number of instants, and a net with at most one instant makes
// no useless transition.
//
// Along the way it checks the kernel's form: one 8-byte word per slot
// after the first step from reset, 16 bytes while an X lane is in its
// state, and one word again once the X lanes have passed, unless a
// register feedback loop holds one.
//
// With -short (CI's -race step) it leaves out the 16-bit multipliers,
// whose 64 scalar lanes are most of its cost.
func TestWideScheduleMatchesEventKernel(t *testing.T) {
	masks := []uint64{^uint64(0), 1<<37 - 1, 1<<5 - 1}
	const (
		xLanes     = 1<<1 | 1<<17 | 1<<40 // the lanes stimulus and imports force to X
		importStep = 5                    // the step after the forced-X import
	)
	xStep := func(step int) bool { return step == 2 || step == 4 }
	models := []sim.Options{
		{Delay: delay.Unit()},
		{Delay: delay.FullAdderRatio(2, 1)},
		{Delay: delay.Typical()},
		{Delay: delay.Zero()},
		{Delay: delay.Typical(), Mode: sim.Inertial},
		{Delay: delay.FullAdderRatio(0, 5), Mode: sim.Inertial},
	}
	for _, nl := range scheduleSubjects(t) {
		c := sim.Compile(nl)
		_, feedback := c.SequentialDepth()
		steps := 12
		if nl.NumCells() > 2000 {
			if testing.Short() {
				continue
			}
			steps = 8
		}
		for _, opts := range models {
			name := fmt.Sprintf("%s/%s/%v", nl.Name, opts.Delay.Name(), opts.Mode)
			ks := sim.NewWideKernel(c, opts)
			cs := core.NewWideCounter(nl)
			ks.AttachWideMonitor(cs)
			ref := newScalarLanes(c, opts, sim.MaxLanes)
			src := stimulus.NewWideRandom(nl.InputWidth(), seedBlock(31))
			buf := make([]logic.W, nl.InputWidth())
			for step := range steps {
				mask := masks[step*len(masks)/steps]
				cs.SetLaneMask(mask)
				for l, m := range ref.monitors {
					m.active = mask>>l&1 != 0
				}
				if step == importStep {
					st := forceX(nl, ks.ExportState(nil), xLanes)
					ks.ImportState(st, ks.Cycle())
					ref.setState(st)
				}
				pi := src.NextWide(buf)
				if xStep(step) {
					for i := 0; i < len(pi); i += 3 {
						pi[i].Zero &^= xLanes
						pi[i].One &^= xLanes
					}
				}
				events := ks.Events()
				if err := ks.Step(pi); err != nil {
					t.Fatalf("%s: wide step %d: %v", name, step, err)
				}
				want, err := ref.step(pi)
				if err != nil {
					t.Fatalf("%s: scalar step %d: %v", name, step, err)
				}
				if got := ks.Events() - events; got != want {
					t.Fatalf("%s: step %d counted %d events, the scalar lanes changed a net at %d (net, instant) pairs", name, step, got, want)
				}
				st := ks.ExportState(nil)
				for l, s := range ref.sims {
					for i, w := range st {
						if got, want := w.Lane(l), s.Value(netlist.NetID(i)); got != want {
							t.Fatalf("%s: after step %d net %s lane %d settled at %v, scalar run %v", name, step, nl.Nets[i].Name, l, got, want)
						}
					}
				}
				want16 := 0 // bytes per slot, where the form is certain
				switch {
				case step == 0 || step == steps-1 && !feedback:
					want16 = 8
				case xStep(step):
					want16 = 16
				}
				if got, _ := sim.SlotBytes(ks); want16 != 0 && got != want16 {
					t.Fatalf("%s: after step %d the kernel steps on %d bytes per slot, want %d", name, step, got, want16)
				}
			}
			merged := ref.merged(t)
			if got := cs.Counter(); got.Cycles() != merged.Cycles() || ks.Cycle() != steps {
				t.Fatalf("%s: cycles %d/%d, scalar lanes %d/%d", name, got.Cycles(), ks.Cycle(), merged.Cycles(), steps)
			}
			sc := sim.ScheduleOf(ks)
			for i := range nl.NumNets() {
				id := netlist.NetID(i)
				got, want := cs.Stats(id), merged.Stats(id)
				if got != want {
					t.Fatalf("%s: net %s stats %+v, scalar lanes %+v", name, nl.Nets[i].Name, got, want)
				}
				if pc := sc.Instants(id); int(got.MaxPerCycle) > pc || (pc <= 1 && got.Useless != 0) {
					t.Fatalf("%s: net %s with %d instants made %d transitions in a cycle and %d useless ones",
						name, nl.Nets[i].Name, pc, got.MaxPerCycle, got.Useless)
				}
			}
			ks.Release()
		}
	}
}

// forceX sets lanes of st, a settled state of nl, to X on every third
// primary input and flip-flop output, and settles the other nets of
// those lanes from them (netlist.EvalOutputs). The result is a state a
// kernel could have settled at: a net forced to X against the inputs of
// its cell would stay X in the scalar kernel until an input changed, but
// turn known in the wide kernel at the cell's next instant.
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
// >= 1 — only its constant cells have delay 0 — so its schedules have
// no batch slots.
func TestWideScheduleShape(t *testing.T) {
	for _, name := range registry.Names() {
		nl := mustBuild(t, name)
		c := sim.Compile(nl)
		dt := sim.NewDelayTable(c, delay.Typical())
		if dt.MinEvaluated() < 1 {
			t.Errorf("%s: typical model evaluates a pin with delay %d", name, dt.MinEvaluated())
			continue
		}
		sc := sim.NewSchedule(c, sim.Options{Delays: dt})
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
// the 16-bit one the registry's circuits get, on random netlists with
// cells of up to four inputs under the typical model, in transport and
// inertial mode (windows, and the inner instructions of cells with more
// than three inputs), and under random per-pin delays with zeros (batch
// slots).
func TestWideScheduleIndexWidths(t *testing.T) {
	rng := stimulus.NewPRNG(31337)
	for trial := range 6 {
		nl := testutil.RandomNetlist(rng, testutil.RandConfig{
			Inputs: 6, Gates: 80, Outputs: 3, WithDFFs: trial%2 == 1, WithCompound: true,
		})
		c := sim.Compile(nl)
		for _, opts := range []sim.Options{
			{Delay: delay.Typical()},
			{Delay: delay.Typical(), Mode: sim.Inertial},
			{Delay: randomDelay(uint64(trial), 3), Mode: sim.Inertial},
		} {
			opts.Delays = sim.NewDelayTable(c, opts.Delay)
			var stats [2]*core.Counter
			var events [2]uint64
			for w, sc := range []*sim.Schedule{sim.NewSchedule(c, opts), sim.NewScheduleInt32(c, opts)} {
				opts.Schedule = sc
				k := sim.NewWideKernel(c, opts)
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
			name := fmt.Sprintf("trial %d %s/%v", trial, opts.Delay.Name(), opts.Mode)
			if events[0] != events[1] {
				t.Fatalf("%s: %d events with 16-bit indices, %d with 32-bit", name, events[0], events[1])
			}
			for i := range nl.NumNets() {
				if a, b := stats[0].Stats(netlist.NetID(i)), stats[1].Stats(netlist.NetID(i)); a != b {
					t.Fatalf("%s: net %s stats %+v with 16-bit indices, %+v with 32-bit", name, nl.Nets[i].Name, a, b)
				}
			}
		}
	}
}

// TestWideSettleMatchesStep: on every registry circuit and both random
// DAGs, under unit, full-adder-ratio, typical and zero delay and under
// inertial typical and fa(0,5) delay, k Settle steps from reset leave
// the same state (ExportState, Cycle) as k Steps. Step 2 feeds stimulus
// words with X lanes, and before step 4 both kernels import a state
// with X lanes (forceX). Every state passes Compiled.Unsettled, the rule
// a checkpoint resume applies.
//
// Each Settle adds one event per net whose settled value changed, X →
// known included, and a kernel that has not yet seen an X lane holds 8
// bytes per slot: it has not allocated its zero rail. A kernel at reset
// exports the reset state and keeps the reset form through an import of
// it (the warm-up's fast-forward).
func TestWideSettleMatchesStep(t *testing.T) {
	const xLanes = 1<<1 | 1<<17 | 1<<40
	const xStep, importStep = 2, 4
	models := []sim.Options{
		{Delay: delay.Unit()},
		{Delay: delay.FullAdderRatio(2, 1)},
		{Delay: delay.Typical()},
		{Delay: delay.Zero()},
		{Delay: delay.Typical(), Mode: sim.Inertial},
		{Delay: delay.FullAdderRatio(0, 5), Mode: sim.Inertial},
	}
	for _, nl := range scheduleSubjects(t) {
		c := sim.Compile(nl)
		steps := 7
		if nl.NumCells() > 2000 {
			steps = 5
		}
		for _, opts := range models {
			name := fmt.Sprintf("%s/%s/%v", nl.Name, opts.Delay.Name(), opts.Mode)
			kStep, kSettle := sim.NewWideKernel(c, opts), sim.NewWideKernel(c, opts)
			reset := kSettle.ExportState(nil)
			if !slices.Equal(reset, kStep.ExportState(nil)) {
				t.Fatalf("%s: fresh kernels export different states", name)
			}
			kSettle.ImportState(reset, 0)
			if step, held := sim.SlotBytes(kSettle); step != 8 || held != 8 {
				t.Fatalf("%s: at reset after importing the reset state: %d/%d bytes per slot, want 8/8", name, step, held)
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

// TestOscillationGuardMatchesScalar: the wide kernel fails a step with
// an *OscillationError naming hot nets exactly at the first step at
// which one of 64 scalar runs with the same settle guard fails (the
// minimum over lanes), on nine registry circuits × unit, fa(2,1),
// typical, zero and random per-pin delays × both modes × guards at 2/5,
// 3/5 and 4/5 of the critical path (3/5 alone with -short), over 10
// steps. Most configurations fail; the zero-delay ones, and guards no
// lane's path reaches, never do.
func TestOscillationGuardMatchesScalar(t *testing.T) {
	const steps = 10
	circuits := []string{"rca8", "cla16", "array8", "wallace8", "booth8", "dirdet8", "dirdet8r", "pipemult8", "accum16"}
	models := []delay.Model{delay.Unit(), delay.FullAdderRatio(2, 1), delay.Typical(), delay.Zero(), randomDelay(41, 4)}
	tripped, total, later := 0, 0, 0
	for _, circuit := range circuits {
		nl := mustBuild(t, circuit)
		c := sim.Compile(nl)
		for _, dm := range models {
			dt := sim.NewDelayTable(c, dm)
			path := nl.CriticalPathLength(func(cell *netlist.Cell, pin int) int { return dm.Delay(cell, pin) })
			for _, mode := range []sim.Mode{sim.Transport, sim.Inertial} {
				for _, fifths := range []int{2, 3, 4} {
					if testing.Short() && fifths != 3 {
						continue
					}
					opts := sim.Options{Delays: dt, Mode: mode, MaxTimePerCycle: path * fifths / 5}
					name := fmt.Sprintf("%s/%s/%v/guard=%d", circuit, dm.Name(), mode, opts.MaxTimePerCycle)
					src := stimulus.NewWideRandom(nl.InputWidth(), seedBlock(19))
					k := sim.NewWideKernel(c, opts)
					wide := -1
					var err error
					var pis [][]logic.W
					for step := 0; step < steps && wide < 0; step++ {
						pis = append(pis, slices.Clone(src.NextWide(make([]logic.W, nl.InputWidth()))))
						if err = k.Step(pis[step]); err != nil {
							wide = step
						}
					}
					scalar := -1
					vec := make(logic.Vector, nl.InputWidth())
					for l := range sim.MaxLanes {
						s := sim.NewFromCompiled(c, opts)
						for step := 0; step < steps && (scalar < 0 || step < scalar); step++ {
							if step == len(pis) {
								pis = append(pis, slices.Clone(src.NextWide(make([]logic.W, nl.InputWidth()))))
							}
							for i, w := range pis[step] {
								vec[i] = w.Lane(l)
							}
							if s.Step(vec) != nil {
								scalar = step
								break
							}
						}
					}
					if wide != scalar {
						t.Fatalf("%s: the wide kernel first fails at step %d (%v), the scalar lanes at step %d", name, wide, err, scalar)
					}
					total++
					if wide < 0 {
						continue
					}
					tripped++
					if wide > 0 {
						later++
					}
					var oe *sim.OscillationError
					if !errors.As(err, &oe) || len(oe.Nets) == 0 || oe.Cycle != wide || oe.Guard != opts.MaxTimePerCycle {
						t.Fatalf("%s: step %d failed with %v, want an OscillationError of cycle %d naming hot nets", name, wide, err, wide)
					}
				}
			}
		}
	}
	t.Logf("%d of %d configurations failed, %d of them after the first step", tripped, total, later)
	if tripped == 0 || later == 0 {
		t.Fatal("no configuration failed, or every failure came in the first step")
	}
}
