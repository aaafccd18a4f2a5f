package sim

// Typed kernel failures and the shared in-loop poll behind them. Every
// way a Step can fail for resource reasons — cancellation, budget
// exhaustion, a settle-guard trip — funnels through the machinery in
// this file, so both kernels (scalar and wide) fail with the same error
// types and the layers above can route on errors.Is/errors.As instead
// of string matching. The scalar kernel trips the settle guard when an
// event is due past it; the wide kernel when a net changed past it in
// some lane (see The settle guard in schedule.go), which happens at the
// same step.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"glitchsim/netlist"
)

// Budget resource names, used in BudgetError.Resource and mirrored in
// service error details.
const (
	BudgetEvents    = "events"
	BudgetWallClock = "wall_clock"
	BudgetMemory    = "memory"
)

// Budget bounds a simulator's resource consumption; the zero value is
// unlimited. Budgets are checked on the same every-cancelCheckInterval
// poll as Options.Cancel, so enforcement can overshoot by up to one
// poll interval of events — deterministically so for a given netlist
// and stimulus (the poll schedule depends only on the event stream),
// which keeps event-budget trips reproducible.
type Budget struct {
	// Events bounds the simulator's lifetime event count (Events()).
	// The scalar kernel counts every event it pops, cancelled inertial
	// events and zero-delay re-schedules included. The wide kernel
	// counts word events, one per net and instant at which some of its
	// 64 lanes changed (per changed net in a Settle), under every delay
	// model and mode, so the same budget buys ~64× the simulated work
	// there.
	Events uint64
	// Deadline is the wall-clock instant past which Step fails.
	Deadline time.Time
}

// ErrBudgetExceeded is the sentinel wrapped by every BudgetError;
// errors.Is(err, ErrBudgetExceeded) detects budget trips regardless of
// which resource ran out.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// BudgetError reports a simulation aborted by a resource budget. The
// aborted Step discards its in-flight events, so every statistic
// accumulated for earlier cycles remains well defined: monitors saw
// OnCycleEnd exactly Cycle times and no partial-cycle state leaks into
// their counts.
type BudgetError struct {
	// Resource is the exhausted dimension: BudgetEvents, BudgetWallClock
	// or BudgetMemory.
	Resource string
	// Limit and Used are the configured bound and the consumption seen
	// at the failing check, in the resource's unit (events, bytes). Both
	// are zero for wall-clock trips, where the deadline is the bound.
	// For admission-time memory failures Used is the cost estimate.
	Limit, Used uint64
	// Cycle is the number of fully completed Steps (warm-up included) at
	// the abort.
	Cycle int
}

func (e *BudgetError) Error() string {
	if e.Limit == 0 && e.Used == 0 {
		return fmt.Sprintf("sim: %s budget exceeded after %d completed cycles", e.Resource, e.Cycle)
	}
	return fmt.Sprintf("sim: %s budget exceeded (%d > limit %d) after %d completed cycles",
		e.Resource, e.Used, e.Limit, e.Cycle)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// ErrOscillation is the sentinel wrapped by every OscillationError.
var ErrOscillation = errors.New("network did not settle (oscillation or guard too low)")

// OscillationError reports a cycle that failed to settle within the
// MaxTimePerCycle guard: either the network genuinely oscillates
// (combinational feedback) or the guard is too low for the delay model
// and logic depth. In-flight events are discarded before the error is
// returned, exactly like a budget abort.
type OscillationError struct {
	// Circuit is the netlist name.
	Circuit string
	// Cycle is the kernel cycle (warm-up included) that failed to settle.
	Cycle int
	// Guard is the MaxTimePerCycle bound that was exceeded.
	Guard int
	// Nets and Names identify up to maxHotNets nets still changing when
	// the guard tripped — the nets to inspect first when hunting the
	// feedback loop: on the scalar kernel those with events in flight,
	// on the wide kernel those changed at the first instant past the
	// guard, in net order. Names is aligned with Nets.
	Nets  []netlist.NetID
	Names []string
}

func (e *OscillationError) Error() string {
	msg := fmt.Sprintf("sim: cycle %d of %q did not settle by time %d (oscillation or guard too low)",
		e.Cycle, e.Circuit, e.Guard)
	if len(e.Names) > 0 {
		msg += "; hot nets: " + strings.Join(e.Names, ", ")
	}
	return msg
}

func (e *OscillationError) Unwrap() error { return ErrOscillation }

// maxHotNets caps the oscillating nets an OscillationError reports.
const maxHotNets = 8

// newOscillationError builds the typed settle-guard failure shared by
// both kernels; nets are the caller's hot nets, capped here so kernels
// can pass whatever they collected cheaply.
func newOscillationError(n *netlist.Netlist, cycle, guard int, nets []netlist.NetID) error {
	if len(nets) > maxHotNets {
		nets = nets[:maxHotNets]
	}
	names := make([]string, len(nets))
	for i, id := range nets {
		names[i] = n.Nets[id].Name
	}
	return &OscillationError{Circuit: n.Name, Cycle: cycle, Guard: guard, Nets: nets, Names: names}
}

// pollState is the periodic in-loop check shared by both kernels:
// cancellation and resource budgets ride one every-cancelCheckInterval
// poll, so adding budgets cost no extra branch on the hot path.
type pollState struct {
	cancel   func() error
	budget   Budget
	deadline bool   // budget.Deadline is set
	nextAt   uint64 // event count at which to poll next
	active   bool   // anything to check at all
}

func (p *pollState) init(opts Options) {
	p.cancel = opts.Cancel
	p.budget = opts.Budget
	p.deadline = !opts.Budget.Deadline.IsZero()
	p.nextAt = cancelCheckInterval
	p.active = p.cancel != nil || p.budget.Events > 0 || p.deadline
	p.clampToBudget(0)
}

// clampToBudget pulls the next poll forward so an event budget is
// checked as soon as it is reached instead of at the next full interval:
// overshoot then stays below one event batch rather than one interval.
//
//glitchsim:hotpath
func (p *pollState) clampToBudget(events uint64) {
	if b := p.budget.Events; b > 0 && b > events && b < p.nextAt {
		p.nextAt = b
	}
}

// due reports whether the poll should run at the given lifetime event
// count. Kept separate from poll so the hot loop pays one compare.
//
//glitchsim:hotpath
func (p *pollState) due(events uint64) bool { return p.active && events >= p.nextAt }

// poll runs the cancellation and budget checks; cycle is the kernel's
// completed-cycle count, recorded in BudgetError so callers know through
// which cycle boundary the statistics are valid. The caller discards
// in-flight events on a non-nil return.
func (p *pollState) poll(events uint64, cycle int) error {
	p.nextAt = events + cancelCheckInterval
	p.clampToBudget(events)
	if p.cancel != nil {
		if err := p.cancel(); err != nil {
			return err
		}
	}
	if lim := p.budget.Events; lim > 0 && events >= lim {
		// An exhausted budget stays exhausted for the simulator's
		// lifetime: keep the poll permanently due so later Steps fail
		// immediately instead of running one interval for free.
		p.nextAt = 0
		return &BudgetError{Resource: BudgetEvents, Limit: lim, Used: events, Cycle: cycle}
	}
	if p.deadline && time.Now().After(p.budget.Deadline) {
		p.nextAt = 0
		return &BudgetError{Resource: BudgetWallClock, Cycle: cycle}
	}
	return nil
}
