package glitchsim

// Sequential-subsystem tests at the public-measurement layer: DFF
// netlists must survive both interchange formats fingerprint-exact, the
// default warm-up must scale with register depth, lane decomposition
// must stay bit-identical to merged scalar runs on circuits with
// feedback and pipeline state, and Figure 10 must anchor its sweep to
// the actual sequential subject measured before retiming.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/internal/registry"
	"glitchsim/internal/retime"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

var sequentialRegistry = []string{"pipemult8", "accum16", "accum16cg"}

func buildRegistry(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	nl, err := registry.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestDFFRoundTrip: every sequential registry circuit round-trips
// through Verilog and JSON fingerprint-exact — DFF cells, feedback
// wiring, PI/PO order and buses included.
func TestDFFRoundTrip(t *testing.T) {
	for _, name := range sequentialRegistry {
		nl := buildRegistry(t, name)
		if nl.NumDFFs() == 0 {
			t.Fatalf("%s: expected DFF cells", name)
		}

		var sb strings.Builder
		if err := verilog.Write(&sb, nl); err != nil {
			t.Fatalf("%s: verilog write: %v", name, err)
		}
		fromV, err := verilog.Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: verilog parse: %v", name, err)
		}
		if got, want := fromV.Fingerprint(), nl.Fingerprint(); got != want {
			t.Errorf("%s: verilog round trip changed fingerprint:\n  want %s\n  got  %s", name, want, got)
		}
		if fromV.NumDFFs() != nl.NumDFFs() {
			t.Errorf("%s: verilog round trip: %d DFFs, want %d", name, fromV.NumDFFs(), nl.NumDFFs())
		}

		var buf bytes.Buffer
		if err := nl.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: json write: %v", name, err)
		}
		fromJ, err := netlist.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: json read: %v", name, err)
		}
		if got, want := fromJ.Fingerprint(), nl.Fingerprint(); got != want {
			t.Errorf("%s: json round trip changed fingerprint:\n  want %s\n  got  %s", name, want, got)
		}
	}
}

// TestSequentialLevels: the register-depth metric behind the warm-up
// default and warm-up rule. The accumulators' self-loops must not
// diverge; their carry chain q[0]→q[15] is the depth that counts, and
// their feedback keeps them off the levels+1 warm-up.
func TestSequentialLevels(t *testing.T) {
	for name, want := range map[string]struct {
		levels   int
		feedback bool
	}{
		"rca16":     {0, false}, // combinational
		"dirdet8r":  {1, false}, // input registers only
		"pipemult8": {4, false}, // 3 stage cuts + output register
		"accum16":   {16, true}, // carry chain across the feedback registers
		"accum16cg": {16, true},
	} {
		nl := buildRegistry(t, name)
		if got := nl.SequentialLevels(); got != want.levels {
			t.Errorf("%s: SequentialLevels = %d, want %d", name, got, want.levels)
		}
		levels, feedback := sim.Compile(nl).SequentialDepth()
		if levels != want.levels || feedback != want.feedback {
			t.Errorf("%s: compiled SequentialDepth = (%d, %v), want (%d, %v)", name, levels, feedback, want.levels, want.feedback)
		}
	}
}

// TestSequentialWarmupDefault: the default warm-up stays at 8 for
// shallow circuits (keeping historical numbers) and grows to
// SequentialLevels+1 on deeper pipelines; explicit values always win.
func TestSequentialWarmupDefault(t *testing.T) {
	for name, want := range map[string]int{
		"rca16":     8,
		"dirdet8r":  8,
		"pipemult8": 8,
		"accum16":   17,
	} {
		nl := buildRegistry(t, name)
		if got := (Config{}).withDefaults(nl).Warmup; got != want {
			t.Errorf("%s: default warmup = %d, want %d", name, got, want)
		}
	}
	nl := buildRegistry(t, "accum16")
	if got := (Config{Warmup: 3}).withDefaults(nl).Warmup; got != 3 {
		t.Errorf("explicit warmup overridden: got %d, want 3", got)
	}
	if got := (Config{Warmup: ExplicitZero}).withDefaults(nl).Warmup; got != 0 {
		t.Errorf("ExplicitZero warmup overridden: got %d, want 0", got)
	}
}

// retimedDirdet returns the Figure 10 subject retimed for period 14:
// a feed-forward pipeline of latency 5 whose register depth is 6.
func retimedDirdet(t *testing.T) *netlist.Netlist {
	t.Helper()
	res, err := retime.ForPeriod(buildRegistry(t, "dirdet8r"), delay.Unit(), 14, 8*71)
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist
}

// TestSequentialMeasureLanes: the full Measure-layer lane decomposition
// on sequential circuits — per-lane register state, warm-up flushes and
// quota retirement — must be bit-identical to measuring the lanes one
// stream at a time, under uniform (lockstep kernel) and non-uniform
// (wide-event kernel) delay models, for every warm-up length. The
// scalar reference simulates every warm-up step, so on the feed-forward
// pipelines (pipemult8, retimed dirdet8r) this checks warmupSteps'
// levels+1 rule against the full warm-up, below, at and above the
// register depth D.
func TestSequentialMeasureLanes(t *testing.T) {
	ctx := context.Background()
	rt := retimedDirdet(t)
	for _, tc := range []struct {
		name     string
		nl       *netlist.Netlist
		cycles   int
		lanes    int
		dm       delay.Model
		inertial bool
	}{
		{"pipemult8-unit-64", buildRegistry(t, "pipemult8"), 80, 64, delay.Unit(), false},
		{"pipemult8-faratio-64", buildRegistry(t, "pipemult8"), 60, 64, delay.FullAdderRatio(2, 1), false},
		{"accum16-unit-64", buildRegistry(t, "accum16"), 80, 64, delay.Unit(), false},
		{"accum16-typical-23", buildRegistry(t, "accum16"), 70, 23, delay.Typical(), false},
		{"accum16cg-faratio-64", buildRegistry(t, "accum16cg"), 60, 64, delay.FullAdderRatio(3, 1), false},
		{"dirdet8r-t14-unit-64", rt, 70, 64, delay.Unit(), false},
		{"dirdet8r-t14-typical-inertial-23", rt, 50, 23, delay.Typical(), true},
	} {
		nl := tc.nl
		c := sim.Compile(nl)
		d := nl.SequentialLevels()
		for _, warmup := range []int{1, 2, d, d + 1, 37, 0, ExplicitZero} {
			name := fmt.Sprintf("%s/warmup=%d", tc.name, warmup)
			cfg := Config{Cycles: tc.cycles, Seed: 9, Delay: tc.dm, Inertial: tc.inertial, Warmup: warmup}.withDefaults(nl)
			lanes := min(tc.lanes, cfg.Cycles)
			wide, err := measureWide(ctx, c, nil, cfg, lanes, 1)
			if err != nil {
				t.Fatalf("%s: wide: %v", name, err)
			}
			agg := mergedLaneStreams(t, c, cfg, lanes)
			if wide.Cycles() != agg.Cycles() || wide.Cycles() != tc.cycles {
				t.Fatalf("%s: cycles wide=%d scalar=%d want %d", name, wide.Cycles(), agg.Cycles(), tc.cycles)
			}
			assertSameStats(t, name, nl, wide, agg)
		}
	}
}

// TestFeedforwardWarmupSettlesInDepthSteps: a lane-decomposed
// measurement of a pipeline without register feedback simulates only
// the last SequentialLevels+1 of its 40 warm-up vectors, so it completes
// under an event budget just below what a step-by-step warm-up costs,
// with statistics equal to the scalar lane streams that do simulate
// every warm-up step. accum16's feedback loops keep the step-by-step
// warm-up, which trips the same budget. Warm-up steps run through
// Settle, so the budget counts 40 Settle steps.
func TestFeedforwardWarmupSettlesInDepthSteps(t *testing.T) {
	const warmup, lanes = 40, MaxLanes
	for _, tc := range []struct {
		name  string
		nl    *netlist.Netlist
		trips bool
	}{
		{"pipemult8", buildRegistry(t, "pipemult8"), false},
		{"dirdet8r-t14", retimedDirdet(t), false},
		{"accum16", buildRegistry(t, "accum16"), true},
	} {
		nl := tc.nl
		c := sim.Compile(nl)
		cfg := Config{Cycles: 2 * lanes, Warmup: warmup, Seed: 3}.withDefaults(nl)

		// The budget: one event short of a step-by-step warm-up.
		ws := sim.NewWideKernel(c, sim.Options{})
		src := stimulus.NewWideRandom(nl.InputWidth(), laneSeeds(cfg.Seed, lanes))
		buf := make([]logic.W, nl.InputWidth())
		for i := 0; i < warmup; i++ {
			if err := ws.Settle(src.NextWide(buf)); err != nil {
				t.Fatal(err)
			}
		}
		bcfg := cfg
		bcfg.Budget = Budget{Events: ws.Events() - 1}

		wide, err := measureWide(context.Background(), c, nil, bcfg, lanes, 1)
		if tc.trips {
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("%s: err = %v, want the %d-event budget exceeded during warm-up", tc.name, err, bcfg.Budget.Events)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v, want completion within %d events", tc.name, err, bcfg.Budget.Events)
		}
		if wide.Cycles() != cfg.Cycles {
			t.Fatalf("%s: measured %d cycles, want %d", tc.name, wide.Cycles(), cfg.Cycles)
		}
		assertSameStats(t, tc.name, nl, wide, mergedLaneStreams(t, c, cfg, lanes))
	}
}

// TestSequentialFigure10BeforeAfter: Figure 10 now reports the actual
// sequential subject measured before retiming. The before row is golden
// against an independent MeasurePower of the unretimed netlist, and the
// session stream carries before as row 0 of targets+1.
func TestSequentialFigure10BeforeAfter(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	req := ExperimentRequest{Cycles: 100, Seed: 1}
	res, err := e.Figure10(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Subject != "dirdet8r" {
		t.Errorf("subject = %q, want dirdet8r", res.Subject)
	}
	b := res.Before
	if b.Circuit != 0 || b.TargetPeriod != 0 || b.Latency != 0 {
		t.Errorf("before row not anchored at circuit 0: %+v", b)
	}

	// Golden: the before row is the unretimed subject, measured with the
	// ordinary power path under the default (sequential-aware) warm-up.
	base := buildRegistry(t, "dirdet8r")
	bd, act, err := e.MeasurePower(ctx, MeasureRequest{Circuit: CircuitFromNetlist(base), Config: Config{Cycles: req.Cycles, Seed: req.Seed}})
	if err != nil {
		t.Fatal(err)
	}
	if b.FFs != bd.NumFFs || b.FFs != 48 {
		t.Errorf("before FFs = %d (breakdown %d), want 48", b.FFs, bd.NumFFs)
	}
	if b.TotalMW != bd.TotalW()*1e3 || b.LogicMW != bd.LogicW*1e3 || b.LOverF != act.LOverF() {
		t.Errorf("before row diverges from direct measurement:\nrow:    %+v\npower:  %+v", b, bd)
	}
	if want := retime.FromNetlist(base, delay.Unit(), 0).ClockPeriod(nil); b.Period != want {
		t.Errorf("before period = %d, want critical path %d", b.Period, want)
	}

	// Session stream: before is row 0 of targets+1, sweep rows follow.
	// The callback tap runs on the sweep's worker goroutines.
	var mu sync.Mutex
	var events []Event
	sess := e.NewSessionFunc(ctx, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	defer sess.Close()
	sres, err := sess.Figure10(req)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Before != res.Before {
		t.Errorf("session before row differs from engine run")
	}
	wantTotal := len(res.Points) + 1
	if len(events) != wantTotal {
		t.Fatalf("session emitted %d events, want %d", len(events), wantTotal)
	}
	seen := make(map[int]bool)
	for _, ev := range events {
		if ev.Kind != EventRow || ev.Total != wantTotal || ev.Row == nil {
			t.Fatalf("unexpected event %+v", ev)
		}
		seen[ev.Index] = true
		if ev.Index == 0 && *ev.Row != res.Before {
			t.Errorf("event 0 is not the before row: %+v", *ev.Row)
		}
	}
	if len(seen) != wantTotal {
		t.Errorf("event indices not distinct: %v", seen)
	}
}
