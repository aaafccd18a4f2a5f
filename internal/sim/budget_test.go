package sim

// Budget-enforcement and typed-failure tests shared by the kernels: a
// tripped budget returns *BudgetError with the completed cycle count, a
// tripped settle guard returns *OscillationError naming the hot nets,
// and both leave the simulator consistent enough that a subsequent Step
// works.

import (
	"errors"
	"testing"
	"time"

	"glitchsim/internal/logic"
	"glitchsim/internal/stimulus"
)

// stepper erases the scalar/wide Step signature difference: it advances
// one cycle with a fresh random vector and reports events and completed
// cycles.
type stepper interface {
	step() error
	events() uint64
	cycles() int
}

type scalarStepper struct {
	s   *Simulator
	src stimulus.Source
}

func (st *scalarStepper) step() error    { return st.s.Step(st.src.Next()) }
func (st *scalarStepper) events() uint64 { return st.s.Events() }
func (st *scalarStepper) cycles() int    { return st.s.Cycle() }

type wideStepper struct {
	s   WideKernel
	src stimulus.Source
	pi  []logic.W
}

func (st *wideStepper) step() error {
	v := st.src.Next()
	for i := range st.pi {
		st.pi[i] = logic.SplatW(v[i])
	}
	return st.s.Step(st.pi)
}
func (st *wideStepper) events() uint64 { return st.s.Events() }
func (st *wideStepper) cycles() int    { return st.s.Cycle() }

// buildSteppers constructs the scalar and the wide kernel over the same
// 8-bit RCA with the given options, each with its own equal stimulus
// stream.
func buildSteppers(t *testing.T, opts Options) map[string]stepper {
	t.Helper()
	n, _ := buildRCA(t, 8)
	c := Compile(n)
	width := n.InputWidth()
	return map[string]stepper{
		"scalar": &scalarStepper{s: NewFromCompiled(c, opts), src: stimulus.NewRandom(width, 7)},
		"wide":   &wideStepper{s: NewWideKernel(c, opts), src: stimulus.NewRandom(width, 7), pi: make([]logic.W, width)},
	}
}

func TestBudgetEventsTripsEveryKernel(t *testing.T) {
	const limit = 300
	for name, st := range buildSteppers(t, Options{Budget: Budget{Events: limit}}) {
		var err error
		steps := 0
		for ; steps < 10000 && err == nil; steps++ {
			err = st.step()
		}
		if err == nil {
			t.Fatalf("%s: budget of %d events never tripped after %d steps", name, limit, steps)
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: error %v is not ErrBudgetExceeded", name, err)
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: error %T is not *BudgetError", name, err)
		}
		if be.Resource != BudgetEvents {
			t.Errorf("%s: resource %q, want %q", name, be.Resource, BudgetEvents)
		}
		if be.Limit != limit || be.Used < limit {
			t.Errorf("%s: limit %d used %d, want limit %d and used >= limit", name, be.Limit, be.Used, limit)
		}
		if be.Used != st.events() {
			t.Errorf("%s: used %d != kernel events %d", name, be.Used, st.events())
		}
		// The failing Step never completed: completed cycles == successful
		// steps == the cycle recorded in the error.
		if be.Cycle != steps-1 || st.cycles() != steps-1 {
			t.Errorf("%s: error cycle %d, kernel cycles %d, successful steps %d", name, be.Cycle, st.cycles(), steps-1)
		}
	}
}

func TestBudgetDeadlineTripsEveryKernel(t *testing.T) {
	// A deadline in the past trips at the first poll. The poll is
	// event-scheduled, so it takes a few cycles of an 8-bit RCA to reach
	// the first interval boundary.
	deadline := time.Now().Add(-time.Second)
	for name, st := range buildSteppers(t, Options{Budget: Budget{Deadline: deadline}}) {
		var err error
		for steps := 0; steps < 10000 && err == nil; steps++ {
			err = st.step()
		}
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: expected *BudgetError, got %v", name, err)
		}
		if be.Resource != BudgetWallClock {
			t.Errorf("%s: resource %q, want %q", name, be.Resource, BudgetWallClock)
		}
	}
}

func TestBudgetErrorLeavesKernelSteppable(t *testing.T) {
	for name, st := range buildSteppers(t, Options{Budget: Budget{Events: 100}}) {
		var err error
		for steps := 0; steps < 10000 && err == nil; steps++ {
			err = st.step()
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: expected budget trip, got %v", name, err)
		}
		// The budget stays exhausted, so the next step must fail again
		// with the same typed error — not panic or wedge.
		if err := st.step(); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: step after trip: %v, want ErrBudgetExceeded", name, err)
		}
	}
}

func TestOscillationErrorTypedEveryKernel(t *testing.T) {
	// An 8-bit RCA under unit delay needs up to 8 time units to ripple;
	// a guard of 2 trips mid-carry-chain on a full ripple.
	for name, st := range buildSteppers(t, Options{MaxTimePerCycle: 2}) {
		var err error
		for steps := 0; steps < 100 && err == nil; steps++ {
			err = st.step()
		}
		if err == nil {
			t.Fatalf("%s: guard of 2 never tripped", name)
		}
		if !errors.Is(err, ErrOscillation) {
			t.Fatalf("%s: error %v is not ErrOscillation", name, err)
		}
		var oe *OscillationError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: error %T is not *OscillationError", name, err)
		}
		if oe.Guard != 2 {
			t.Errorf("%s: guard %d, want 2", name, oe.Guard)
		}
		if oe.Circuit != "rca" {
			t.Errorf("%s: circuit %q, want rca", name, oe.Circuit)
		}
		if len(oe.Nets) == 0 || len(oe.Nets) != len(oe.Names) {
			t.Errorf("%s: hot nets %v names %v: want non-empty and aligned", name, oe.Nets, oe.Names)
		}
		for i, nm := range oe.Names {
			if nm == "" {
				t.Errorf("%s: hot net %d has empty name", name, oe.Nets[i])
			}
		}
		if len(oe.Nets) > maxHotNets {
			t.Errorf("%s: %d hot nets exceeds cap %d", name, len(oe.Nets), maxHotNets)
		}
	}
}
