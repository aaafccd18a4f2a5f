package sim

// The word-parallel kernels: one simulation advancing logic.Lanes (64)
// independent stimulus lanes at once. Every net value is a packed
// logic.W — one three-valued level per lane — and cell evaluation is the
// branch-free bitwise form from internal/logic, cross-checked at init
// against the scalar truth tables. The schedule kernel keeps only the W's
// one rail, and evaluates plain Boolean logic, once a step settles with
// every lane of every net known; a stimulus word or an imported value
// with an X lane returns it to three-valued words, and allocates the
// second rail the first time one needs it.
//
// Both kernels take a cycle in two ways: Step, which counts every
// transition on the attached counter, and Settle, for the warm-up
// cycles no counter observes. The schedule kernel's Settle computes
// each net's settled value alone, with one instruction per cell, on the
// one rail from reset when the stimulus is known; the event kernel's is
// its Step.
//
// NewWideKernel routes each run to one of two kernels:
//
//   - the schedule kernel (schedule.go) whenever the delays are uniform
//     or the mode is transport, every evaluated pin has delay >= 1 and
//     the critical path fits under the settle guard: it runs a cached
//     static instruction list with no event queue and counts each net
//     once per step;
//   - the lane-masked event kernel (wideevent.go) for the rest: inertial
//     runs under non-uniform delays, evaluated zero-delay pins, and
//     delay models whose critical path could trip the settle guard.
//
// Lane l of either kernel is bit-identical to a scalar simulation driven
// with lane l's stimulus. TestWideKernelEquivalence and
// TestWideEventKernelEquivalence enforce it against 64 merged scalar
// runs for every built-in circuit.

import (
	"fmt"
	"sync"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/logic"
	"glitchsim/netlist"
)

// MaxLanes is the number of stimulus lanes one wide kernel advances per
// step: the machine word width.
const MaxLanes = logic.Lanes

// UniformDelay reports whether the delay model assigns one common delay
// to every connected output pin of every combinational cell of the
// netlist, and returns that delay. A netlist with no combinational
// outputs is trivially uniform with delay 1. It folds the model through
// the same delay.VisitOutputs walk as table construction — without
// compiling the netlist or building a table, so pure kernel prediction
// (Engine.SelectedKernel) neither hashes nor allocates — and thus can
// never disagree with DelayTable.Uniform about which pins a model is
// asked about.
func UniformDelay(n *netlist.Netlist, dm delay.Model) (int, bool) {
	if dm == nil {
		dm = delay.Unit()
	}
	min, max := delay.Bounds(n, dm)
	if min != max {
		return 0, false
	}
	return min, true
}

// Delay-class names, the values KernelName returns. They predate the
// schedule kernel, which runs both classes in transport mode: they now
// name the delay class of a run, not the kernel that runs it.
const (
	classUniform = "wide-lockstep" // one common delay >= 1 on every output
	classMixed   = "wide-event"    // every other delay table
)

// delayClass names a delay table's class (see classUniform).
func delayClass(dt *DelayTable) string {
	if d, ok := dt.Uniform(); ok && d >= 1 {
		return classUniform
	}
	return classMixed
}

// WideKernel is the common face of the two word-parallel kernels. The
// measurement layer drives whichever NewWideKernel hands it through this
// interface.
type WideKernel interface {
	// Step simulates one clock cycle for all lanes: pi holds, per primary
	// input, the packed per-lane stimulus bits (aligned with the
	// netlist's PIs).
	Step(pi []logic.W) error
	// Settle simulates one clock cycle like Step, for a cycle that no
	// counter observes (a warm-up step): it must not be called while a
	// counter is attached. It leaves the settled state and the cycle
	// count as Step would, and polls cancellation and budgets like it.
	// The schedule kernel computes each net's settled value alone and
	// counts one word event per net whose settled value changed in some
	// lane (X → known included); the event kernel's Settle is its Step.
	// After an error the settled state is unspecified: a budget stays
	// exhausted and a cancellation stays, so no later step succeeds.
	Settle(pi []logic.W) error
	// AttachWideMonitor makes c count subsequent cycles, replacing any
	// counter attached before.
	AttachWideMonitor(c *core.WideCounter)
	// Events returns the number of word events processed: one per net
	// and instant at which some lane of the net changed in a Step, and
	// in a schedule kernel's Settle one per net whose settled value
	// changed.
	Events() uint64
	// Cycle returns the number of completed cycles.
	Cycle() int
	// KernelName names the run's delay class: "wide-lockstep" for a
	// uniform delay >= 1, "wide-event" for every other delay table.
	KernelName() string
	// ExportState appends the kernel's packed net values to dst and
	// returns it. Valid only at a cycle boundary (between Step calls),
	// where the settled net values are the kernel's entire dynamic
	// state: nothing is in flight and flip-flop sampling state is
	// derivable from the Q nets. The measurement checkpoint layer
	// serializes this.
	ExportState(dst []logic.W) []logic.W
	// ImportState overwrites the kernel's net values with vals (length
	// NumNets) and sets the completed-cycle count, re-deriving all
	// internal caches. The next Step continues exactly as if the kernel
	// had simulated to that boundary itself.
	ImportState(vals []logic.W, cycle int)
	// Release hands the kernel's grown per-step buffers back: the event
	// kernel's arena, touched-cell and coalescing lists to a pool the
	// next event kernel draws from, so it starts at the grown capacity
	// instead of regrowing it, and the schedule kernel's slots to the
	// garbage collector. The kernel must not be used afterwards; a
	// second Release is a no-op, and a kernel that is never released is
	// simply collected.
	Release()
}

// Scheduled reports whether NewWideKernel runs c under these options on
// the schedule kernel: the delays are uniform or the mode is transport
// (under a uniform delay >= 1 the two modes coincide), every output pin
// of a cell that has inputs has delay >= 1, and no Step can trip the
// settle guard (CanOscillate).
func (opts Options) Scheduled(c *Compiled) bool {
	dt := opts.delayTable(c)
	if opts.Mode == Inertial {
		if _, ok := dt.Uniform(); !ok {
			return false
		}
	}
	return dt.MinEvaluated() >= 1 && !opts.CanOscillate(c)
}

// NewWideKernel returns the word-parallel kernel for the options: the
// schedule kernel when Scheduled holds — on opts.Schedule, or on a
// schedule built here when that is nil — and the event-driven masked
// kernel otherwise. Every delay model is word-parallel simulatable, so
// this cannot fail.
func NewWideKernel(c *Compiled, opts Options) WideKernel {
	opts.Delays = opts.delayTable(c)
	if !opts.Scheduled(c) {
		return NewWideEvent(c, opts)
	}
	sc := opts.Schedule
	if sc == nil {
		sc = NewSchedule(c, opts.Delays)
	}
	return newScheduleKernel(c, sc, opts)
}

// stepBuffers are the event kernel's growable per-step buffers: the
// touched-cell, arena, free-slot and coalescing lists. Each grows to its
// workload's working set within the first steps. A kernel takes one set
// from stepBufferPool at construction and Release puts it back, so a
// measurement that builds a kernel per shard, or a service that builds
// one per request, regrows nothing. (The schedule kernel's slots are
// sized exactly by their schedule and allocated per kernel: pooled, each
// set's slots grew to the largest circuit it had served, which held a
// measurable share of the service's resident memory.)
type stepBuffers struct {
	touched     []netlist.CellID
	arena       []maskedEvent
	free        []int32
	changedList []netlist.NetID
}

var stepBufferPool = sync.Pool{New: func() any { return new(stepBuffers) }}

// wideCore is the state and code the two word-parallel kernels share:
// the compiled netlist, the flip-flop samples, the attached counter, the
// cycle and event counts and the poll. Both kernels embed it; a kernel
// must not declare a field of the same name, which would shadow the
// core's.
type wideCore struct {
	c    *Compiled
	name string // the delay class KernelName reports

	ffQ []logic.W // sampled Q, indexed like Compiled.dffCells

	counter *core.WideCounter // counts every settled cycle; nil counts nothing
	cycle   int
	events  uint64 // word events processed (each spans all lanes)

	poll pollState // periodic cancellation + budget check
}

// newWideCore returns the reset state of a wide kernel's shared part:
// every flip-flop sampled at 0. opts.Delays must be set.
func newWideCore(c *Compiled, opts Options) wideCore {
	s := wideCore{
		c:    c,
		name: delayClass(opts.Delays),
		ffQ:  make([]logic.W, len(c.dffCells)),
	}
	s.poll.init(opts)
	for i := range s.ffQ {
		s.ffQ[i] = logic.SplatW(logic.L0)
	}
	return s
}

// AttachWideMonitor makes c count subsequent cycles. It replaces any
// counter attached before.
func (s *wideCore) AttachWideMonitor(c *core.WideCounter) { s.counter = c }

// Cycle returns the number of completed cycles.
func (s *wideCore) Cycle() int { return s.cycle }

// Events returns the total number of word events processed; each word
// event updates the lanes of one net at one instant.
func (s *wideCore) Events() uint64 { return s.events }

// KernelName implements WideKernel.
func (s *wideCore) KernelName() string { return s.name }

// checkWidth panics unless pi has one word per primary input.
//
//glitchsim:hotpath
func (s *wideCore) checkWidth(pi []logic.W) {
	if len(pi) != len(s.c.n.PIs) {
		panic(fmt.Sprintf("sim: stimulus width %d, netlist has %d inputs", len(pi), len(s.c.n.PIs)))
	}
}

// sample applies the clock edge to flip-flop i whose D input settled at
// v, lane-wise: lanes with a known D take it, lanes still at X hold the
// flipflop's current state — the per-lane image of the scalar rule.
//
//glitchsim:hotpath
func (s *wideCore) sample(i int, v logic.W) {
	k := v.Zero | v.One
	q := &s.ffQ[i]
	q.Zero = (v.Zero & k) | (q.Zero &^ k)
	q.One = (v.One & k) | (q.One &^ k)
}

// checkImport panics unless vals holds one value per net.
func (s *wideCore) checkImport(vals []logic.W) {
	if nn := s.c.n.NumNets(); len(vals) != nn {
		panic(fmt.Sprintf("sim: imported state has %d nets, netlist has %d", len(vals), nn))
	}
}

// endCycle classifies the settled cycle on the counter and counts it.
func (s *wideCore) endCycle() {
	if s.counter != nil {
		s.counter.OnCycleEnd()
	}
	s.cycle++
}
