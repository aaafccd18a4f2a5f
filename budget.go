package glitchsim

// Resource governance: per-measurement budgets, the typed failure
// taxonomy they produce, and admission-time cost estimation. Budgets
// bound a measurement while it runs (enforced inside all three kernels
// on the cancellation poll); cost estimation predicts a measurement's
// footprint from netlist statistics alone, so a service can reject or
// shed a pathological request before compiling anything.

import (
	"time"

	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// Typed failure taxonomy, re-exported from the kernel layer so callers
// route on errors.Is / errors.As without importing internal packages.
var (
	// ErrBudgetExceeded marks a measurement aborted by a Budget; the
	// concrete error is a *BudgetError naming the exhausted resource.
	ErrBudgetExceeded = sim.ErrBudgetExceeded
	// ErrOscillation marks a cycle that failed to settle within the
	// guard time; the concrete error is an *OscillationError naming the
	// hot nets.
	ErrOscillation = sim.ErrOscillation
)

// BudgetError reports a measurement aborted by a resource budget; see
// the sim package for field semantics. On event and wall-clock trips
// the measurement entry points also return the partial counter with
// well-defined statistics through the last completed cycle boundary.
type BudgetError = sim.BudgetError

// OscillationError reports a settle-guard trip, naming the nets still
// toggling when the guard was exceeded.
type OscillationError = sim.OscillationError

// Budget resource names (BudgetError.Resource).
const (
	BudgetEvents    = sim.BudgetEvents
	BudgetWallClock = sim.BudgetWallClock
	BudgetMemory    = sim.BudgetMemory
)

// Budget bounds one measurement's resource consumption; the zero value
// is unlimited. Events and WallClock are enforced inside the simulation
// kernels on the periodic cancellation poll: a trip aborts the run with
// a *BudgetError whose Cycle records the completed-cycle boundary, and
// the measurement returns the partial activity counter accumulated
// through that boundary alongside the error. MemoryBytes is enforced at
// admission time, against the cost estimate, before the netlist is even
// compiled.
type Budget struct {
	// Events bounds the kernel's lifetime event count. Word-parallel
	// kernels count word events (one event covers up to 64 lanes), so
	// the same budget buys proportionally more simulated work there;
	// budget an estimate from EstimateCost, not a cross-kernel constant.
	// Warm-up counts against it too, and a lane-decomposed measurement
	// of a netlist without register feedback settles its warm-up in at
	// most SequentialLevels+1 steps (see Config.Warmup), so there the
	// budget buys more measured cycles than on a single-stream run of
	// the same circuit. A lane-decomposed warm-up step on the schedule
	// kernel computes settled values only, and counts one word event
	// per net whose settled value changed rather than one per net and
	// instant (sim.WideKernel.Settle).
	Events uint64
	// MemoryBytes bounds the estimated footprint (CostEstimate
	// .MemoryBytes) of the compiled netlist plus kernel state.
	MemoryBytes uint64
	// WallClock bounds the elapsed time of one measurement pass.
	WallClock time.Duration
}

// IsZero reports whether the budget is entirely unlimited.
func (b Budget) IsZero() bool { return b == Budget{} }

// simBudget resolves the measurement-layer budget into the kernel form,
// anchoring the wall-clock allowance at start.
func (b Budget) simBudget(start time.Time) sim.Budget {
	sb := sim.Budget{Events: b.Events}
	if b.WallClock > 0 {
		sb.Deadline = start.Add(b.WallClock)
	}
	return sb
}

// CostEstimate predicts the resource footprint of one measurement from
// netlist statistics alone — nothing is compiled or simulated. The
// estimate is deliberately coarse (an order-of-magnitude planning
// number for admission control); in-kernel Budget enforcement remains
// the precise mechanism.
type CostEstimate struct {
	// Cells, Nets and Pins are the netlist's raw sizes; Pins counts cell
	// input pins, the CSR fanout volume.
	Cells, Nets, Pins int
	// Depth is the combinational logic depth; SequentialLevels the
	// register pipeline depth (both drive the warm-up default and the
	// glitch amplification heuristic).
	Depth, SequentialLevels int
	// Lanes is the resolved lane decomposition and Steps the number of
	// kernel steps the run executes, warm-up included (for a scalar run
	// Lanes is 1 and Steps counts plain cycles; a lane-decomposed run
	// without register feedback counts at most SequentialLevels+1
	// warm-up steps, see Config.Warmup). Steps is the serial count: a
	// measurement split across free engine slots (see
	// WithMaxConcurrency) settles each further shard in at most
	// SequentialLevels+1 extra steps, which adds at most 1/8 to it.
	Lanes, Steps int
	// EventsPerStep is the heuristic expected event count of one kernel
	// step: one injection per input plus cell evaluations amplified by
	// the depth-proportional glitching the paper analyzes.
	EventsPerStep uint64
	// Events = EventsPerStep * Steps, the number compared against event
	// limits at admission. It prices a warm-up step as a full step,
	// although a lane-decomposed one on the schedule kernel settles
	// values only and counts at most one event per net (see
	// Budget.Events): admission stays conservative.
	Events uint64
	// MemoryBytes estimates the resident footprint of the compiled CSR
	// arrays plus one kernel's state.
	MemoryBytes uint64
}

// estimateCost computes the estimate for a config whose engine-level
// defaults are already applied and a resolved lane count.
func estimateCost(n *netlist.Netlist, cfg Config, lanes int) CostEstimate {
	lanes = splitLanes(cfg, lanes)
	cfg = cfg.withDefaults(n)
	pins := 0
	for i := range n.Cells {
		pins += len(n.Cells[i].In)
	}
	levels, feedback := n.SequentialDepth()
	est := CostEstimate{
		Cells:            n.NumCells(),
		Nets:             n.NumNets(),
		Pins:             pins,
		Depth:            n.LogicDepth(),
		SequentialLevels: levels,
		Lanes:            lanes,
	}
	est.Steps = warmupSteps(levels, feedback, cfg.Warmup, lanes) + (cfg.Cycles+lanes-1)/lanes
	// Per step: every input injects one event, and each cell evaluates
	// with ~50% input activity, amplified by depth-proportional glitching
	// (the paper's L/F grows with unbalanced path depth). Constants are
	// calibrated to land within ~2-5× of measured unit-delay event
	// counts on the built-in adders and multipliers.
	est.EventsPerStep = uint64(n.InputWidth()) +
		uint64(est.Cells)/2*uint64(1+est.Depth/4)
	if est.EventsPerStep == 0 {
		est.EventsPerStep = 1
	}
	est.Events = est.EventsPerStep * uint64(est.Steps)
	// CSR arrays (per cell: types, offsets, output nets; per pin: input
	// nets and fanout entries) plus one wide kernel's per-net state
	// (packed values, projections, change records, pending counts).
	est.MemoryBytes = 4096 +
		uint64(est.Cells)*48 +
		uint64(est.Nets)*96 +
		uint64(est.Pins)*16
	return est
}

// EstimateCost resolves the request's circuit and predicts its resource
// footprint under the engine's defaults, without compiling or running
// anything. The service's admission layer calls this on every incoming
// measure request. It prices a warm-up step like a measured one (see
// CostEstimate.Events), so admission stays conservative.
func (e *Engine) EstimateCost(req MeasureRequest) (CostEstimate, error) {
	nl, _, err := e.requestNetlist(req.Netlist, req.Circuit)
	if err != nil {
		return CostEstimate{}, err
	}
	cfg := e.fillDefaults(req.Config)
	return estimateCost(nl, cfg, e.laneCount(cfg)), nil
}

// Load reports the engine's simulation-slot occupancy: slots in use and
// the WithMaxConcurrency capacity. A saturated engine (active ==
// capacity) is the service's signal to shed expensive requests with 429
// instead of queueing them. Slots a split measurement borrowed for its
// shards count as in use until it returns: they are simulating.
func (e *Engine) Load() (active, capacity int) { return len(e.sem), cap(e.sem) }

// admitMemory rejects a measurement whose estimated footprint exceeds
// the request's memory budget — before compilation, so a pathological
// netlist never allocates its CSR arrays. cfg must have engine defaults
// applied.
func (e *Engine) admitMemory(n *netlist.Netlist, cfg Config) error {
	lim := cfg.Budget.MemoryBytes
	if lim == 0 {
		return nil
	}
	if est := estimateCost(n, cfg, e.laneCount(cfg)); est.MemoryBytes > lim {
		return &BudgetError{Resource: BudgetMemory, Limit: lim, Used: est.MemoryBytes}
	}
	return nil
}
