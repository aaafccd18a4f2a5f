// Package glitchsim reproduces "Analysis and Reduction of Glitches in
// Synchronous Networks" (Leijten, van Meerbergen, Jess; DATE 1995): an
// event-driven gate-level simulator with transition counting and parity
// evaluation that classifies every signal transition as useful or
// useless (glitching), closed-form activity analysis of ripple-carry
// adders, a Leiserson–Saxe retiming engine for glitch reduction, and a
// three-component power model (combinational logic / flipflops / clock).
//
// This root package is the high-level API: it wires stimulus, simulator,
// activity counter and power model together, and exposes one driver per
// experiment of the paper (Figure 5, Tables 1–3, the §4.2 direction
// detector study, Figure 10, and the §3.1 worst case).
package glitchsim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"glitchsim/internal/circuits"
	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/power"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// Activity summarizes classified transition counts of one measurement,
// the quantities the paper's Tables 1 and 2 report.
type Activity struct {
	Circuit string
	Cycles  int
	// Transitions = Useful + Useless.
	Transitions, Useful, Useless uint64
	// Glitches counts pairs of consecutive useless transitions.
	Glitches uint64
	// Rising counts power-consuming (0→1) transitions.
	Rising uint64
}

// LOverF returns the paper's useless/useful ratio L/F.
func (a Activity) LOverF() float64 {
	if a.Useful == 0 {
		return 0
	}
	return float64(a.Useless) / float64(a.Useful)
}

// BalanceLimitFactor returns 1 + L/F: the factor by which combinational
// activity would drop if all delay paths were perfectly balanced.
func (a Activity) BalanceLimitFactor() float64 { return 1 + a.LOverF() }

// String renders the activity compactly.
func (a Activity) String() string {
	return fmt.Sprintf("%s: %d cycles, total=%d useful=%d useless=%d L/F=%.2f",
		a.Circuit, a.Cycles, a.Transitions, a.Useful, a.Useless, a.LOverF())
}

// ExplicitZero requests an actual count of zero for Config fields whose
// zero value selects a default (Cycles, Warmup). Any negative value
// works; the constant documents the intent:
//
//	Config{Warmup: glitchsim.ExplicitZero} // measure from reset, no warm-up
const ExplicitZero = -1

// Config controls a measurement run.
type Config struct {
	// Cycles is the number of measured cycles. 0 selects the default of
	// 500, the paper's Table 1 run length; ExplicitZero runs none.
	Cycles int
	// Warmup is the number of stimulus vectors applied before
	// measurement starts, flushing X values and pipeline fill. 0 selects
	// the default: 8 cycles, extended on sequential netlists to
	// SequentialLevels+1 when the register pipeline is deeper than that,
	// so every DFF holds flushed state before counting starts.
	// ExplicitZero disables warm-up so start-up activity is measured too.
	// When no flipflop feeds back on itself, the settled state depends
	// on the last SequentialLevels+1 vectors alone (the last vector on a
	// combinational netlist), so a lane-decomposed measurement simulates
	// only that many warm-up vectors and skips the rest of each lane's
	// stream; the statistics are those of a full warm-up. Single-stream
	// (Lanes=1 or explicit Source) measurements and circuits with
	// register feedback simulate every warm-up cycle.
	Warmup int
	// Seed selects the random stimulus stream (default 1).
	Seed uint64
	// Delay is the propagation-delay model (default unit delay).
	Delay delay.Model
	// Inertial selects inertial instead of transport delay handling.
	Inertial bool
	// Source overrides the default uniform random stimulus.
	Source stimulus.Source
	// Lanes selects how many independent seeded stimulus streams the
	// measured Cycles are distributed over (see wide.go): all lanes
	// advance in one word-parallel simulation, evaluating every gate for
	// up to 64 patterns at once — under every delay model, in both
	// modes, on the wide kernel's static schedule. It is bit-identical
	// to running the L streams one after another on the scalar kernel.
	// 0 selects the engine's WithLanes value, MaxLanes without that
	// option; 1 is the historical single-stream measurement; values are
	// capped at MaxLanes. Ignored when an explicit Source is set
	// (external sources are inherently single-stream) or when at most
	// one cycle is measured.
	//
	// Lane decomposition keeps stimulus streams invariant across delay
	// models: Table 2's unit and dsum=2·dcarry rows see identical vector
	// streams, keeping their useful counts equal. Each lane gets its own
	// Warmup vectors, all word-parallel: a netlist with register
	// feedback pays Warmup kernel steps for them, a feed-forward one at
	// most SequentialLevels+1 settling steps, one when combinational
	// (see Warmup). Set Lanes=1 to reproduce pre-lanes
	// single-stream numbers exactly. Engine.SelectedKernel reports the
	// resulting kernel choice.
	Lanes int
	// Budget bounds the measurement's resource consumption; the zero
	// value is unlimited. Event and wall-clock trips abort the run with
	// a *BudgetError AND return the partial counter accumulated through
	// the last completed cycle boundary; the memory bound rejects the
	// request at admission, before compilation. See Budget.
	Budget Budget
	// CheckpointEvery, when > 0, runs the measurement in chunks of that
	// many word-parallel cycles: at every chunk boundary (except the
	// final one) the partial counter and kernel state fold into a
	// MeasureCheckpoint handed to CheckpointSink. Chunk boundaries are
	// pure observation points — they never perturb the simulation, so
	// checkpointed and plain runs are bit-identical. Requires the
	// lane-decomposed word-parallel path (no explicit Source, Lanes > 1,
	// Cycles > 1); other paths fail with ErrCheckpointUnsupported.
	CheckpointEvery int
	// CheckpointSink receives each chunk boundary's checkpoint; nil
	// disables capture (CheckpointEvery then only shapes the loop).
	// Returning ErrStopAtCheckpoint stops the measurement cleanly at
	// the boundary — see CheckpointSink's doc.
	CheckpointSink CheckpointSink
	// Resume continues a measurement from a previously captured
	// checkpoint instead of starting at cycle zero: the kernel state,
	// counter totals and stimulus position are restored, and the
	// remaining cycles run on the identical per-lane seed streams. The
	// checkpoint must match this configuration exactly (fingerprint,
	// cycles, lanes, seed, warm-up, delay model, mode) or the
	// measurement fails with ErrCheckpointMismatch.
	Resume *MeasureCheckpoint
}

func (c Config) withDefaults(n *netlist.Netlist) Config {
	c.Cycles = c.measuredCycles()
	switch {
	case c.Warmup == 0:
		c.Warmup = 8
		if n.NumDFFs() > 0 {
			if lv := n.SequentialLevels() + 1; lv > c.Warmup {
				c.Warmup = lv
			}
		}
	case c.Warmup < 0: // ExplicitZero
		c.Warmup = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Delay == nil {
		c.Delay = delay.Unit()
	}
	if c.Source == nil {
		c.Source = stimulus.NewRandom(n.InputWidth(), c.Seed)
	}
	return c
}

// measuredCycles resolves Cycles: 0 selects the default of 500,
// ExplicitZero (any negative value) none.
func (c Config) measuredCycles() int {
	switch {
	case c.Cycles == 0:
		return 500
	case c.Cycles < 0:
		return 0
	}
	return c.Cycles
}

// warmupSteps returns how many kernel steps a warm-up of the given
// number of vectors costs on the path lanes selects (lanes > 1: the
// lane-decomposed word-parallel path), for a netlist of the given
// SequentialDepth. There a netlist without register feedback settles
// its warm-up in at most levels+1 steps, one for a combinational
// netlist. Validate guarantees acyclic combinational logic, so a
// settled cycle is a function of the applied vector and the flipflop
// outputs. By induction on register level, a level-j flipflop holds data
// derived from the last j vectors alone once j real vectors have been
// applied, whatever the reset state or an X-hold sample left in it
// before: all of its inputs are then known. So the settled state after
// levels+1 steps equals that of the full warm-up, and the first
// Warmup-levels-1 vectors only advance the stimulus streams. A feedback
// loop carries state indefinitely, so such netlists warm up step by
// step, as does the scalar path, which stays the independent reference
// the equivalence suites compare against. A shard of a split
// measurement (measureWide) warms up on every vector before its first
// measured step the same way.
func warmupSteps(levels int, feedback bool, warmup, lanes int) int {
	if lanes > 1 && !feedback {
		return min(warmup, levels+1)
	}
	return warmup
}

// measureCompiled is the measurement core shared by the Engine's entry
// points: the compiled netlist may be shared across goroutines,
// everything else is per-call state. ctx is checked between cycles and,
// through the kernel's Cancel hook, periodically inside the event loop,
// so cancellation lands promptly even mid-cycle on large circuits.
// lanes is the resolved lane count (see Engine.laneCount); splitLanes
// decides how many parallel stimulus streams the measurement runs on a
// word-parallel kernel (measureWide), over at most shards shards (see
// shardCap), with wide-kernel schedules from the schedules cache (nil:
// built per measurement). A single lane takes the single-stream path.
func measureCompiled(ctx context.Context, c *sim.Compiled, schedules *memo[*sim.Schedule], cfg Config, lanes, shards int) (*core.Counter, error) {
	n := c.Netlist()
	lanes = splitLanes(cfg, lanes)
	cfg = cfg.withDefaults(n)
	if cfg.Source.Width() != n.InputWidth() {
		return nil, fmt.Errorf("glitchsim: stimulus width %d, circuit %q has %d inputs",
			cfg.Source.Width(), n.Name, n.InputWidth())
	}
	if lanes > 1 {
		return measureWide(ctx, c, schedules, cfg, lanes, shards)
	}
	if cfg.CheckpointEvery > 0 || cfg.Resume != nil {
		return nil, fmt.Errorf("%w: circuit %q would run single-stream", ErrCheckpointUnsupported, n.Name)
	}
	return measureStream(ctx, c, cfg)
}

// measureStream measures one stimulus stream on the scalar kernel: the
// single-stream measurement (Lanes=1 or an explicit Source), and the
// per-lane reference the equivalence suites merge in lane order to check
// measureWide. cfg must have its defaults resolved. On a budget trip the
// partial counter is returned WITH the error: its statistics cover every
// cycle completed before the trip (a trip during warm-up yields a
// zero-cycle counter).
func measureStream(ctx context.Context, c *sim.Compiled, cfg Config) (*core.Counter, error) {
	n := c.Netlist()
	mode := sim.Transport
	if cfg.Inertial {
		mode = sim.Inertial
	}
	opts := sim.Options{Delay: cfg.Delay, Mode: mode, Budget: cfg.Budget.simBudget(time.Now())}
	if ctx.Done() != nil {
		opts.Cancel = ctx.Err
	}
	s := sim.NewFromCompiled(c, opts)
	// Warm-up runs unmonitored: the kernel then takes its no-monitor fast
	// path, and attaching the counter afterwards is indistinguishable
	// from attach-then-Reset (the counter carries no cross-cycle state
	// beyond the statistics a reset would clear).
	for i := 0; i < cfg.Warmup; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.Step(cfg.Source.Next()); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				return core.NewCounter(n), err
			}
			return nil, err
		}
	}
	counter := core.NewCounter(n)
	s.AttachMonitor(counter)
	for i := 0; i < cfg.Cycles; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.Step(cfg.Source.Next()); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				return counter, err
			}
			return nil, err
		}
	}
	return counter, nil
}

// ActivityFromCounter summarizes a counter's classified totals into an
// Activity named after circuit — the same reduction every measurement
// entry point applies. Useful for counters obtained from MeasureDetailed
// or the merged aggregate of MeasureSeeds.
func ActivityFromCounter(circuit string, counter *core.Counter) Activity {
	return summarize(circuit, counter)
}

func summarize(name string, counter *core.Counter) Activity {
	t := counter.Totals()
	return Activity{
		Circuit:     name,
		Cycles:      counter.Cycles(),
		Transitions: t.Transitions,
		Useful:      t.Useful,
		Useless:     t.Useless,
		Glitches:    t.Glitches,
		Rising:      t.Rising,
	}
}

// DefaultTech returns the calibrated 0.8 µm / 5 V / 5 MHz technology
// constants used by the Table 3 and Figure 10 experiments.
func DefaultTech() power.Tech { return power.Default08um() }

// Convenience circuit constructors re-exported for API users.

// NewRCA returns an N-bit ripple-carry adder built from full-adder cells.
func NewRCA(width int) *netlist.Netlist { return circuits.NewRCA(width, circuits.Cells) }

// NewArrayMultiplier returns an N×N array multiplier (Figure 6).
func NewArrayMultiplier(width int) *netlist.Netlist {
	return circuits.NewArrayMultiplier(width, circuits.Cells)
}

// NewWallaceMultiplier returns an N×N Wallace-tree multiplier (Figure 7).
func NewWallaceMultiplier(width int) *netlist.Netlist {
	return circuits.NewWallaceMultiplier(width, circuits.Cells)
}

// NewDirectionDetector returns the §4.2 video direction detector with
// the given sample width; registered=true adds the input flipflops of
// Table 3's circuit 1.
func NewDirectionDetector(width int, registered bool) *netlist.Netlist {
	return circuits.NewDirectionDetector(circuits.DirDetConfig{
		Width: width, Style: circuits.Cells, RegisterInputs: registered,
	})
}
