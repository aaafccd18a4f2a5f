package glitchsim

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"glitchsim/internal/core"
	"glitchsim/internal/logic"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// Lane decomposition: the measurement-layer face of the word-parallel
// kernels. A measurement with L lanes distributes its Cycles random
// vectors over L independent seeded stimulus streams (each with its own
// warm-up, settled in SequentialLevels+1 steps when no register feeds
// back on itself; see warmupSteps) instead of one long stream, and all
// L streams advance in ONE word-parallel simulation, evaluating every
// gate for up to 64 patterns per visit — under every delay model.
// sim.NewWideKernel runs transport-mode models whose evaluated delays
// are all >= 1 (unit delay, full-adder sum/carry ratios, per-type
// delays) and uniform models in either mode on the schedule kernel,
// with a schedule from the Engine's cache, and the rest (zero delays,
// inertial runs under non-uniform delays) on the lane-masked event
// kernel. Both are bit-identical to L scalar runs merged in lane order
// by construction (TestWideKernelEquivalence,
// TestWideEventKernelEquivalence and TestMeasureLanesScalarWideAgree
// enforce it), so the delay model changes the speed of a measurement,
// never the meaning of its lane decomposition.
//
// Classification semantics are unchanged: every measured cycle is one
// random vector applied to a warmed-up circuit, and the counter sees
// exactly Cycles classified cycles. Only the pairing of consecutive
// vectors differs from a single-stream run, so lane-decomposed activity
// numbers are deterministic per (seed, lanes) but differ from the
// historical Lanes=1 stream. Set Lanes=1 (Config.Lanes or WithLanes)
// to reproduce pre-lanes measurements exactly.

// MaxLanes is the largest lane count a measurement can request: the
// 64-lane machine word of the bit-parallel kernel.
const MaxLanes = sim.MaxLanes

// WithLanes fixes the engine's lane count for measurements whose Config
// does not specify one: n = 1 selects the historical single-stream
// measurement on the scalar kernel, n <= 0 (the default) selects
// MaxLanes, and n is capped at MaxLanes. The glitchsim -lanes flag and
// the glitchsimd -lanes flag set it.
func WithLanes(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		if n > MaxLanes {
			n = MaxLanes
		}
		e.lanes = n
	}
}

// Lanes returns the engine's effective lane count for a zero-valued
// Config.Lanes.
func (e *Engine) Lanes() int { return e.laneCount(Config{}) }

// laneCount resolves the effective lane count of a measurement: an
// explicit Config.Lanes wins, then the engine option, then MaxLanes.
func (e *Engine) laneCount(cfg Config) int {
	n := cfg.Lanes
	if n == 0 {
		n = e.lanes
	}
	if n == 0 {
		n = MaxLanes
	}
	if n < 1 {
		n = 1
	}
	if n > MaxLanes {
		n = MaxLanes
	}
	return n
}

// splitLanes is the lane-routing rule: how many stimulus lanes a
// measurement decomposes into, given its config before Config defaults
// (so an explicit Source is still visible) and the resolved lane count.
// An explicit Source or at most one measured cycle runs single-stream
// (1), and no lane ever runs with nothing to measure.
func splitLanes(cfg Config, lanes int) int {
	if cfg.Source != nil {
		return 1
	}
	return max(1, min(lanes, cfg.measuredCycles()))
}

// laneSeedsInto derives the per-lane stimulus seeds of a decomposed
// measurement from its base seed: one splitmix64 draw per lane, so lane
// streams are mutually independent and stable across lane counts.
func laneSeedsInto(seeds []uint64, base uint64) {
	sm := stimulus.NewPRNG(base)
	for l := range seeds {
		seeds[l] = sm.Uint64()
	}
}

// laneSeeds is the allocating form of laneSeedsInto.
func laneSeeds(base uint64, lanes int) []uint64 {
	seeds := make([]uint64, lanes)
	laneSeedsInto(seeds, base)
	return seeds
}

// laneQuotasInto splits cycles across lanes as evenly as possible,
// non-increasing: the first cycles%lanes lanes measure one extra cycle.
// The quota sum is exactly cycles, so a decomposed measurement reports
// the same cycle count as a single-stream one.
func laneQuotasInto(quotas []int, cycles int) {
	lanes := len(quotas)
	base, rem := cycles/lanes, cycles%lanes
	for l := range quotas {
		quotas[l] = base
		if l < rem {
			quotas[l]++
		}
	}
}

// laneQuotas is the allocating form of laneQuotasInto.
func laneQuotas(cycles, lanes int) []int {
	quotas := make([]int, lanes)
	laneQuotasInto(quotas, cycles)
	return quotas
}

// Kernel identifies the simulation kernel a measurement runs on.
type Kernel string

const (
	// KernelScalar is the single-stream event-driven kernel: Lanes=1
	// measurements, explicit stimulus sources, and runs of at most one
	// cycle. (Its event queue runs as a calendar ring, or as a heap for
	// delays beyond the ring's window; that is an internal detail.)
	KernelScalar Kernel = "scalar"
	// KernelWideLockstep names the delay class of lane-decomposed
	// measurements under uniform delay models with delay >= 1 (the
	// paper's unit-delay experiments), in either mode: the two coincide
	// when no pulse can be narrower than a cell delay. They run on the
	// 64-lane schedule kernel. The name predates that kernel: it no
	// longer names a kernel of its own.
	KernelWideLockstep Kernel = "wide-lockstep"
	// KernelWideEvent names the delay class of lane-decomposed
	// measurements under every other delay model: unequal per-cell
	// delays (full-adder sum/carry ratios, per-type models) and zero
	// delay, in transport or inertial mode. Transport runs whose
	// evaluated delays are all >= 1 run on the schedule kernel, the
	// rest on the 64-lane lane-masked event kernel.
	KernelWideEvent Kernel = "wide-event"
)

// kernelFor reports the kernel class of a measurement of n: scalar by
// the splitLanes rule measureCompiled applies, else the delay class
// sim.WideKernel.KernelName reports. cfg and lanes are as
// measureCompiled receives them (engine defaults applied, Config
// defaults not yet; a nil Delay is unit delay).
func kernelFor(n *netlist.Netlist, cfg Config, lanes int) Kernel {
	if splitLanes(cfg, lanes) == 1 {
		return KernelScalar
	}
	if d, ok := sim.UniformDelay(n, cfg.Delay); ok && d >= 1 {
		return KernelWideLockstep
	}
	return KernelWideEvent
}

// SelectedKernel reports which simulation kernel the engine would run
// the request on, without measuring anything: the value the service's
// /v1/measure responses and the CLI's -format json output surface so
// users can confirm the word-parallel fast path engaged. Kernel
// selection is deterministic — it depends only on the circuit, the
// resolved configuration and the engine's lane/delay defaults — so the
// prediction is exact. It reads the resolved netlist alone: nothing is
// hashed or compiled.
func (e *Engine) SelectedKernel(req MeasureRequest) (Kernel, error) {
	nl, _, err := e.requestNetlist(req.Netlist, req.Circuit)
	if err != nil {
		return "", err
	}
	cfg := e.fillDefaults(req.Config)
	return kernelFor(nl, cfg, e.laneCount(cfg)), nil
}

// laneMaskOf returns the mask of the first n lanes.
func laneMaskOf(n int) uint64 {
	if n >= MaxLanes {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// wideScratch holds the per-measurement buffers of the word-parallel
// path. Measurements are short relative to their setup on small
// circuits, and batch sweeps issue thousands of them, so the buffers are
// pooled across measurement passes instead of reallocated per pass. The
// seeds and quotas belong to the measurement; every shard takes a
// scratch of its own for buf and state.
type wideScratch struct {
	seeds  []uint64
	quotas []int
	buf    []logic.W
	state  []logic.W // kernel net values, for the warm-up re-entry
}

var wideScratchPool = sync.Pool{New: func() any { return new(wideScratch) }}

// grow returns s's buffers resized to the measurement's lane count and
// input width, reusing their backing arrays when large enough.
func (s *wideScratch) grow(lanes, width int) {
	if cap(s.seeds) < lanes {
		s.seeds = make([]uint64, lanes)
		s.quotas = make([]int, lanes)
	}
	s.seeds, s.quotas = s.seeds[:lanes], s.quotas[:lanes]
	if cap(s.buf) < width {
		s.buf = make([]logic.W, width)
	}
	s.buf = s.buf[:width]
}

// minShardSteps is the fewest measured steps per settling step a shard
// must cover: a shard settles in at most SequentialLevels+1 unmonitored
// steps, so a split adds at most 1/minShardSteps to a run's steps.
const minShardSteps = 8

// shardCap is the splitting rule: how many shards a measurement may run
// in (1: serial). cfg and lanes are as measureCompiled receives them. A
// measurement splits only when it is lane-decomposed, its netlist has
// no register feedback (so a shard settles in SequentialLevels+1 steps,
// see warmupSteps), it neither checkpoints nor resumes, and its Budget
// is zero (an event or wall-clock trip returns the serial prefix, and
// memory admission prices one kernel). Each shard then measures at
// least minShardSteps·(SequentialLevels+1) steps.
func shardCap(c *sim.Compiled, cfg Config, lanes int) int {
	lanes = splitLanes(cfg, lanes)
	levels, feedback := c.SequentialDepth()
	if lanes == 1 || feedback || cfg.CheckpointEvery > 0 || cfg.Resume != nil || !cfg.Budget.IsZero() {
		return 1
	}
	steps := (cfg.measuredCycles() + lanes - 1) / lanes
	return max(1, steps/(minShardSteps*(levels+1)))
}

// measureWide runs one word-parallel measurement on the kernel
// NewWideKernel selects for the delay model (cfg has its defaults
// resolved, cfg.Source is the unused default stream, and lanes <=
// cfg.Cycles): lane l simulates the stream of laneSeeds(cfg.Seed)[l]
// for its quota of measured cycles (quotas are non-increasing; all
// lanes share the warm-up length). The folded counter is bit-identical
// to the per-lane scalar measurements merged in lane order, under every
// delay model, whether the warm-up runs step by step or settles in
// fewer steps (warmupSteps).
//
// shards > 1 (only as shardCap allows) splits the measured steps into
// that many contiguous ranges, each measured on its own kernel and
// goroutine (shard 0 on the caller's), and merges their counters in
// shard order. A shard starting at step k0 runs like a serial
// measurement with Warmup+k0 warm-up vectors: it settles in
// SequentialLevels+1 steps from the reset state, which reaches the
// serial run's state before step k0 exactly; every statistic is a
// per-cycle sum (MaxPerCycle a maximum) and the lane mask depends on
// the step alone, so the merge equals the serial counter. A netlist
// whose critical path could exceed the settle guard runs serially: a
// settling step from the reset state could trip the guard where the
// serial run does not. The lowest shard's error wins.
//
// On a budget trip after k completed measured steps, the partial
// counter is returned WITH the error and its statistics equal the
// lane-order merge of scalar runs measuring min(quota_l, k) cycles
// each: per-lane masks are applied at the start of each step, so every
// completed step carries exactly the lanes that were still active.
// When cfg.CheckpointEvery > 0 the measured loop pauses at every chunk
// boundary to fold the counter and kernel state into a sealed
// MeasureCheckpoint for cfg.CheckpointSink; cfg.Resume restores such a
// checkpoint and continues from its cycle on the identical fast-
// forwarded seed streams (see checkpoint.go). Neither perturbs the
// simulation: a chunk boundary only reads state, so checkpointed,
// resumed and plain runs are bit-identical.
func measureWide(ctx context.Context, c *sim.Compiled, schedules *memo[*sim.Schedule], cfg Config, lanes, shards int) (*core.Counter, error) {
	n := c.Netlist()
	mode := sim.Transport
	if cfg.Inertial {
		mode = sim.Inertial
	}
	r := &wideRun{c: c, cfg: cfg, lanes: lanes}
	r.opts = sim.Options{Delay: cfg.Delay, Delays: sim.NewDelayTable(c, cfg.Delay), Mode: mode, Budget: cfg.Budget.simBudget(time.Now())}
	r.opts.Schedule = scheduleFor(schedules, c, r.opts)
	if ctx.Done() != nil {
		r.opts.Cancel = ctx.Err
	}
	scratch := wideScratchPool.Get().(*wideScratch)
	defer wideScratchPool.Put(scratch)
	scratch.grow(lanes, n.InputWidth())
	r.seeds, r.quotas = scratch.seeds, scratch.quotas
	laneSeedsInto(r.seeds, cfg.Seed)
	laneQuotasInto(r.quotas, cfg.Cycles)
	if len(r.quotas) > 0 {
		r.steps = r.quotas[0]
	}
	if shards <= 1 || r.opts.CanOscillate(c) {
		return r.measureSteps(ctx, scratch, 0, r.steps)
	}
	bound := func(i int) int { return r.steps * i / shards }
	counters := make([]*core.Counter, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 1; i < shards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := wideScratchPool.Get().(*wideScratch)
			defer wideScratchPool.Put(s)
			s.grow(0, n.InputWidth())
			counters[i], errs[i] = r.measureSteps(ctx, s, bound(i), bound(i+1))
		}()
	}
	counters[0], errs[0] = r.measureSteps(ctx, scratch, 0, bound(1))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, o := range counters[1:] {
		if err := counters[0].Merge(o); err != nil {
			return nil, err
		}
	}
	return counters[0], nil
}

// scheduleFor returns the schedule every kernel of a measurement of c
// under opts shares: nil when NewWideKernel runs opts on the event
// kernel, from the schedules cache when it is enabled (keyed by the
// netlist's fingerprint and the delay table's digest), built here
// otherwise.
func scheduleFor(schedules *memo[*sim.Schedule], c *sim.Compiled, opts sim.Options) *sim.Schedule {
	if !opts.Scheduled(c) {
		return nil
	}
	build := func() *sim.Schedule { return sim.NewSchedule(c, opts.Delays) }
	if schedules == nil || schedules.capacity <= 0 {
		return build()
	}
	return schedules.get(c.Fingerprint()+"/"+strconv.FormatUint(opts.Delays.Digest(), 16), build)
}

// wideRun is the part of a word-parallel measurement its shards share,
// read-only: the compiled netlist, the resolved config, the kernel
// options with their one DelayTable and Schedule, the lane seeds and
// quotas, and the measured step count (the largest quota).
type wideRun struct {
	c      *sim.Compiled
	cfg    Config
	lanes  int
	opts   sim.Options
	seeds  []uint64
	quotas []int
	steps  int
}

// measureSteps measures steps [k0, k1) of the run on a kernel of its
// own, with s's buf and state as scratch: measureWide's one loop, and
// the whole serial run for k0 = 0, k1 = r.steps.
func (r *wideRun) measureSteps(ctx context.Context, s *wideScratch, k0, k1 int) (*core.Counter, error) {
	c, cfg := r.c, r.cfg
	n := c.Netlist()
	ws := sim.NewWideKernel(c, r.opts)
	defer ws.Release()
	src := stimulus.NewWideRandom(n.InputWidth(), r.seeds)
	buf := s.buf
	counter := core.NewWideCounter(n)
	var ckpt *checkpointer
	if cfg.Resume != nil || (cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil) {
		// Every checkpoint and the resume check share one fingerprint:
		// the engine's cache key, or one hash of the netlist.
		ckpt = newCheckpointer(c.Fingerprint(), cfg, r.lanes, r.opts.Delays)
	}
	if cp := cfg.Resume; cp != nil {
		vals, err := ckpt.resume(cp, counter, c, r.steps)
		if err != nil {
			return nil, err
		}
		// The kernel rejoins the run at the recorded boundary: net values
		// from the snapshot, flip-flop registers re-derived, stimulus
		// fast-forwarded past the warm-up plus the completed prefix.
		ws.ImportState(vals, cfg.Warmup+cp.Cycle)
		src.Skip(cfg.Warmup + cp.Cycle)
		k0 = cp.Cycle
	} else {
		// Warm-up runs with no counter attached, so the kernel counts
		// nothing, and the counter attached afterwards starts at the
		// first measured cycle (it carries no state across cycles
		// besides its statistics). Each warm-up step is a Settle: only
		// the settled state it leaves matters. A shard starting at step
		// k0 warms up on the Warmup+k0 vectors before it. When
		// warmupSteps settles them in fewer steps, the skipped vectors
		// are fast-forwarded, and the kernel keeps its reset state but
		// takes the cycle count the skipped steps would have reached:
		// the last settling step is kernel cycle Warmup+k0-1, and
		// measured cycles (BudgetError.Cycle, checkpoints) are numbered
		// as after a step-by-step warm-up.
		pre := cfg.Warmup + k0
		levels, feedback := c.SequentialDepth()
		steps := warmupSteps(levels, feedback, pre, r.lanes)
		if skip := pre - steps; skip > 0 {
			src.Skip(skip)
			s.state = ws.ExportState(s.state[:0])
			ws.ImportState(s.state, skip)
		}
		for i := 0; i < steps; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := ws.Settle(src.NextWide(buf)); err != nil {
				if errors.Is(err, sim.ErrBudgetExceeded) {
					return core.NewCounter(n), err
				}
				return nil, err
			}
		}
	}
	ws.AttachWideMonitor(counter)
	quotas, active := r.quotas, r.lanes
	for k := k0; k < k1; k++ {
		// Retire lanes whose quota is exhausted (quotas non-increasing:
		// the active set is always a prefix).
		for active > 0 && quotas[active-1] <= k {
			active--
		}
		counter.SetLaneMask(laneMaskOf(active))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ws.Step(src.NextWide(buf)); err != nil {
			if errors.Is(err, sim.ErrBudgetExceeded) {
				return counter.Counter(), err
			}
			return nil, err
		}
		// Chunk boundary: k+1 completed steps. The final boundary is the
		// return value itself, so no checkpoint is taken there.
		if done := k + 1; cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil &&
			done < r.steps && done%cfg.CheckpointEvery == 0 {
			cp, err := ckpt.capture(ws, counter, done)
			if err != nil {
				return nil, err
			}
			if err := cfg.CheckpointSink(cp); err != nil {
				if errors.Is(err, ErrStopAtCheckpoint) {
					return counter.Counter(), &CheckpointedError{Cycle: done, Total: r.steps}
				}
				return nil, fmt.Errorf("glitchsim: checkpoint sink: %w", err)
			}
		}
	}
	return counter.Counter(), nil
}
