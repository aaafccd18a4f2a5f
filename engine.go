package glitchsim

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/power"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// Engine is the execution core of the package: it owns a worker pool
// configuration, an engine-wide simulation concurrency bound
// (WithMaxConcurrency), default delay/technology models, and three
// bounded caches. The compiled-netlist cache is keyed by structural
// fingerprint, so repeated measurements of the same circuit — across
// calls, goroutines and service requests — pay for compilation once.
// Beside it, the schedule cache holds the wide kernel's schedules,
// keyed by fingerprint and sim.Options.ScheduleKey (delay-table digest,
// settle guard, and the delay mode where it shapes the schedule) and
// bounded by their bytes (scheduleCacheBytes), so a repeated
// measurement builds no schedule either.
// The experiment memo holds what the paper's drivers derive without
// looking at a request's seed or cycle count: the fixed circuits they
// measure (built once and hashed once), the retiming sweep subject's
// clock period, and every retiming of a subject, keyed by the subject's
// fingerprint, target period and latency budget. A repeated sweep
// therefore only measures. These two caches are LRUs bounded by
// WithCacheSize, and the netlists they hold are shared read-only. All
// measurement entry points take a context.Context and honour
// cancellation promptly, with periodic checks inside the simulator's
// event loop.
//
// An Engine is safe for concurrent use by any number of goroutines; a
// long-running service shares one Engine across all requests. Its
// configuration is fixed at NewEngine: there are no process-wide
// defaults, so two Engines in one process never influence each other.
type Engine struct {
	workers   int // worker-pool size; 0 selects GOMAXPROCS
	lanes     int // word-parallel stimulus lanes per measurement; 0 selects MaxLanes
	delay     delay.Model
	tech      power.Tech
	cacheSize int
	maxConc   int
	sem       chan struct{}   // engine-wide simulation slots, cap = maxConc
	sources   []CircuitSource // name-resolution chain ahead of the registry

	cache     *memo[*sim.Compiled] // compiled netlists by fingerprint
	schedules *memo[*sim.Schedule] // wide-kernel schedules by fingerprint, delay digest, mode and guard
	memo      *memo[derived]       // experiment circuits, clock periods, retimings

	// hashes counts the netlists hashed for cache keys (fingerprint)
	// and retimings the retime.ForPeriod searches run (retimed), so
	// tests can prove a warm sweep does neither; borrowed counts the
	// slots split measurements have borrowed (borrow).
	hashes, retimings, borrowed atomic.Uint64
}

// memo is a bounded LRU of values computed once per key: the structure
// behind the Engine caches. A value is computed inside its entry's
// once, outside the memo's lock, so concurrent first requests for one
// key compute it once without serializing other keys. A computation
// that panics is never cached: the panic reaches the goroutine that ran
// it, the entry is dropped, and goroutines that waited on it compute
// afresh (and so report the panic too). capacity <= 0 disables the
// memo: get computes every time. A memo built by newByteMemo is bounded
// by the summed sizes of its computed values instead of their number,
// and admits a key only on its second miss.
type memo[V any] struct {
	capacity int
	maxBytes int         // with size: the bound on bytes
	size     func(V) int // nil: entries are bounded by capacity alone
	// seen, with size, holds the keys missed once and not admitted yet:
	// a value asked for once (a fresh upload's schedule) is computed for
	// its caller but never takes a share of the byte bound.
	seen map[string]struct{}

	mu                      sync.Mutex
	lru                     *list.List // of *memoEntry[V]; front = most recently used
	entries                 map[string]*list.Element
	bytes                   int // summed sizes of the retained computed values
	hits, misses, evictions uint64
}

type memoEntry[V any] struct {
	key  string
	once sync.Once
	ok   bool // the computation returned
	v    V
	size int // the value's size, once counted in memo.bytes
}

func newMemo[V any](capacity int) *memo[V] {
	return &memo[V]{capacity: capacity, lru: list.New(), entries: make(map[string]*list.Element)}
}

// newByteMemo returns a memo bounded by the summed size of its values:
// whenever a computed value takes the sum past maxBytes, the least
// recently used entries are evicted until it fits again (a value larger
// than maxBytes is returned but not retained). A key's first miss
// computes its value without retaining it; the second admits it (the
// doorkeeper of TinyLFU, Einziger et al., 2017). enabled false disables
// the memo, like capacity <= 0.
func newByteMemo[V any](enabled bool, maxBytes int, size func(V) int) *memo[V] {
	m := newMemo[V](0)
	if enabled {
		m.capacity = math.MaxInt
	}
	m.maxBytes, m.size, m.seen = maxBytes, size, make(map[string]struct{})
	return m
}

// doorkeeperKeys bounds a byte memo's set of keys missed once; a full
// set is cleared, so a key evicted from it is admitted one miss later.
const doorkeeperKeys = 1024

// get returns the value memoized under key, computing it on a miss.
func (m *memo[V]) get(key string, compute func() V) V {
	if m.capacity <= 0 {
		return compute()
	}
	m.mu.Lock()
	el, hit := m.entries[key]
	if hit {
		m.lru.MoveToFront(el)
		m.hits++
	} else if _, again := m.seen[key]; m.seen != nil && !again {
		if len(m.seen) == doorkeeperKeys {
			clear(m.seen)
		}
		m.seen[key] = struct{}{}
		m.misses++
		m.mu.Unlock()
		return compute()
	} else {
		delete(m.seen, key)
		el = m.lru.PushFront(&memoEntry[V]{key: key})
		m.entries[key] = el
		m.misses++
		if m.lru.Len() > m.capacity {
			m.evictOldest()
		}
	}
	ent := el.Value.(*memoEntry[V])
	m.mu.Unlock()

	defer func() {
		if !ent.ok {
			m.drop(el)
		}
	}()
	ent.once.Do(func() {
		ent.v = compute()
		ent.ok = true
		if m.size != nil {
			m.account(el, m.size(ent.v))
		}
	})
	if !ent.ok {
		return compute()
	}
	return ent.v
}

// evictOldest removes the least recently used entry. m.mu must be held.
func (m *memo[V]) evictOldest() {
	oldest := m.lru.Back()
	m.lru.Remove(oldest)
	ent := oldest.Value.(*memoEntry[V])
	delete(m.entries, ent.key)
	m.bytes -= ent.size
	m.evictions++
}

// account counts a newly computed value's size, if its entry is still
// retained, and evicts least recently used entries until the byte bound
// holds.
func (m *memo[V]) account(el *list.Element, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ent := el.Value.(*memoEntry[V])
	if cur, ok := m.entries[ent.key]; !ok || cur != el {
		return
	}
	ent.size = size
	m.bytes += size
	for m.bytes > m.maxBytes {
		m.evictOldest()
	}
}

// drop removes el unless its key has since been taken by a newer entry.
func (m *memo[V]) drop(el *list.Element) {
	key := el.Value.(*memoEntry[V]).key
	m.mu.Lock()
	if cur, ok := m.entries[key]; ok && cur == el {
		m.lru.Remove(el)
		delete(m.entries, key)
	}
	m.mu.Unlock()
}

// DefaultCacheSize is the number of distinct compiled netlists, and of
// experiment memo entries, an Engine retains when WithCacheSize is not
// given.
const DefaultCacheSize = 128

// scheduleCacheBytes bounds the Engine's wide-kernel schedule cache by
// the schedules' summed Schedule.Bytes. The nine measure-heavy shapes
// (three 16-bit multipliers under unit, full-adder-ratio and typical
// delay) take about 0.56 MB of it.
const scheduleCacheBytes = 8 << 20

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithWorkers fixes the engine's worker-pool size for batch and sweep
// measurements. n <= 0 (the default) selects GOMAXPROCS, read when each
// batch starts. The glitchsim and glitchsimd -workers flags set it.
func WithWorkers(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.workers = n
	}
}

// WithDelayModel sets the delay model measurements fall back to when
// their Config.Delay is nil. The default is unit delay, matching the
// paper's experiments.
func WithDelayModel(m delay.Model) EngineOption {
	return func(e *Engine) { e.delay = m }
}

// WithTech sets the technology constants MeasurePower and the power
// experiments use when the request does not carry its own. The default
// is the calibrated 0.8 µm model of DefaultTech.
func WithTech(t power.Tech) EngineOption {
	return func(e *Engine) { e.tech = t }
}

// WithMaxConcurrency bounds the number of simulations the engine runs
// simultaneously across ALL its calls and sessions, so a service facing
// many concurrent requests cannot oversubscribe the machine: each
// request still fans out onto its own workers, but at most n of them
// simulate at any instant (the rest wait, honouring cancellation). n <=
// 0 (the default) selects GOMAXPROCS. Per-request worker counts larger
// than n are not an error — they just contend for the n slots. A
// single lane-decomposed measurement also borrows the slots that are
// free when it starts, never waiting for one, and splits its measured
// steps into one shard per slot it holds (see Engine.Load); n = 1 never
// splits.
func WithMaxConcurrency(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.maxConc = n
	}
}

// WithCacheSize bounds two of the engine's caches (LRU eviction): the
// compiled-netlist cache to n distinct circuits, and the experiment
// memo to n derived entries (fixed circuits, clock periods and
// retimings). The wide-kernel schedule cache beside the compiled
// netlists is bounded by a fixed byte count instead. n <= 0 disables
// all three: every measurement compiles its netlist and builds its
// schedule, as the pre-Engine API did, and every experiment driver call
// rebuilds and retimes its circuits.
func WithCacheSize(n int) EngineOption {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.cacheSize = n
	}
}

// NewEngine returns an Engine with the given options applied over the
// defaults: GOMAXPROCS workers, MaxLanes lanes, unit fallback delay,
// DefaultTech technology, DefaultCacheSize cache entries.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{
		tech:      power.Default08um(),
		cacheSize: DefaultCacheSize,
	}
	for _, o := range opts {
		o(e)
	}
	e.cache = newMemo[*sim.Compiled](e.cacheSize)
	e.schedules = newByteMemo(e.cacheSize > 0, scheduleCacheBytes, (*sim.Schedule).Bytes)
	e.memo = newMemo[derived](e.cacheSize)
	if e.maxConc <= 0 {
		e.maxConc = runtime.GOMAXPROCS(0)
	}
	e.sem = make(chan struct{}, e.maxConc)
	return e
}

// ErrEngineBusy marks a measurement that gave up waiting for an engine
// simulation slot: its context ended while every WithMaxConcurrency
// slot was held by other work. The returned error also wraps the
// context's own error (context.Canceled or context.DeadlineExceeded),
// so existing errors.Is checks keep working. Async callers use the mark
// to classify the failure as transient — the engine was loaded, not
// broken — and retry with backoff.
var ErrEngineBusy = errors.New("glitchsim: engine at concurrency limit")

// acquire claims one of the engine's simulation slots, blocking until a
// slot frees up or ctx is cancelled.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrEngineBusy, ctx.Err())
	}
}

func (e *Engine) release() { <-e.sem }

// borrow claims up to n further slots for the shards of a split
// measurement without waiting, and returns how many it got: none on a
// saturated engine. The caller hands each one back with release.
func (e *Engine) borrow(n int) int {
	got := 0
claim:
	for got < n {
		select {
		case e.sem <- struct{}{}:
			got++
		default:
			break claim
		}
	}
	e.borrowed.Add(uint64(got))
	return got
}

// Tech returns the engine's default technology constants.
func (e *Engine) Tech() power.Tech { return e.tech }

// Workers returns the engine's effective worker-pool size.
func (e *Engine) Workers() int { return e.workerCount(0) }

// workerCount resolves the effective pool size: an explicit per-request
// count wins, then the engine option, then GOMAXPROCS.
func (e *Engine) workerCount(request int) int {
	if request > 0 {
		return request
	}
	if e.workers > 0 {
		return e.workers
	}
	return DefaultWorkers()
}

// fillDefaults applies the engine-level fallbacks a request config did
// not specify. Only the delay model is engine-scoped; everything else is
// handled by Config.withDefaults at measurement time.
func (e *Engine) fillDefaults(cfg Config) Config {
	if cfg.Delay == nil && e.delay != nil {
		cfg.Delay = e.delay
	}
	return cfg
}

// CacheStats reports the compiled-netlist cache counters since the
// engine was created.
type CacheStats struct {
	// Size is the number of compiled netlists currently retained;
	// Capacity the configured bound (0 = caching disabled).
	Size, Capacity int
	// Hits and Misses count cache lookups; Evictions counts entries
	// dropped by the LRU bound.
	Hits, Misses, Evictions uint64
}

// CacheStats returns a snapshot of the compiled-netlist cache counters.
func (e *Engine) CacheStats() CacheStats {
	m := e.cache
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{
		Size:      m.lru.Len(),
		Capacity:  m.capacity,
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
	}
}

// compiled returns the compiled form of n, from cache when possible.
// The cache key is the netlist's structural fingerprint, so separately
// built instances of the same circuit share one compilation; fp is that
// fingerprint when the caller already knows it (a memoized netlist), ""
// to hash n here. Compile panics on invalid netlists (matching the
// historical Measure behaviour); a panicked compilation never poisons
// the cache.
func (e *Engine) compiled(n *netlist.Netlist, fp string) *sim.Compiled {
	if e.cache.capacity <= 0 {
		return sim.Compile(n)
	}
	if fp == "" {
		fp = e.fingerprint(n)
	}
	return e.cache.get(fp, func() *sim.Compiled { return sim.CompileFingerprinted(n, fp) })
}

// fingerprint hashes n for a cache key, counting the hash.
func (e *Engine) fingerprint(n *netlist.Netlist) string {
	e.hashes.Add(1)
	return n.Fingerprint()
}

// ---------------------------------------------------------------------------
// Request structs.

// MeasureRequest asks for one measurement of one circuit.
type MeasureRequest struct {
	// Circuit references the circuit to measure: a registry name, a
	// Builder-built netlist, Verilog source or the JSON wire format
	// (see CircuitNamed and friends).
	Circuit Circuit
	// Netlist is the circuit to measure as a raw netlist.
	//
	// Deprecated: set Circuit (CircuitFromNetlist wraps an existing
	// netlist). When both are set, Netlist wins.
	Netlist *netlist.Netlist
	// Config controls the run; zero-value fields select the documented
	// defaults (and the engine's delay model, if one was configured).
	Config Config
	// Tech overrides the engine's technology constants for MeasurePower.
	// Nil selects the engine default.
	Tech *power.Tech
}

// BatchRequest asks for a set of independent measurements.
type BatchRequest struct {
	Jobs []MeasureJob
	// Workers overrides the engine's pool size for this batch; 0 keeps
	// the engine default.
	Workers int
}

// SeedSweepRequest asks for the same circuit measured under several
// stimulus seeds, merged into one aggregate counter.
type SeedSweepRequest struct {
	// Circuit references the circuit to sweep (see MeasureRequest).
	Circuit Circuit
	Config  Config
	Seeds   []uint64
	// Workers overrides the engine's pool size for this sweep; 0 keeps
	// the engine default.
	Workers int
}

// ExperimentRequest parameterizes the paper's experiment drivers.
// Zero-value fields select each experiment's documented defaults.
type ExperimentRequest struct {
	// Cycles is the number of measured cycles per point (0 = the
	// experiment's default run length).
	Cycles int
	// Seed selects the stimulus stream (0 = 1).
	Seed uint64
	// Width parameterizes width-dependent studies (Figure5, WorstCase,
	// AdderStudy, MultiplierStudy).
	Width int
	// Targets overrides the Figure10 retiming-period sweep; nil selects
	// the default eight-point sweep.
	Targets []int
	// Seeds parameterizes multi-seed studies (SeedSweep).
	Seeds []uint64
	// Circuit overrides the subject circuit of the retiming power
	// sweeps (Table3, Figure10): the sweep retimes and measures this
	// circuit instead of the paper's input-registered direction
	// detector. Experiments with a fixed circuit set (Table1, Table2,
	// …) reject a non-zero Circuit.
	Circuit Circuit
}

// ---------------------------------------------------------------------------
// Core measurement entry points.

// measureNetlist is the single-measurement core: admit (the memory
// budget is checked against the cost estimate before anything is
// compiled), compile (cached; fp as for compiled), claim an engine
// slot, borrow the free slots a split may use (shardCap), simulate.
// The borrowed slots count in Load while the measurement runs.
func (e *Engine) measureNetlist(ctx context.Context, nl *netlist.Netlist, fp string, cfg Config) (*core.Counter, error) {
	cfg = e.fillDefaults(cfg)
	if err := e.admitMemory(nl, cfg); err != nil {
		return nil, err
	}
	c := e.compiled(nl, fp)
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	lanes := e.laneCount(cfg)
	extra := e.borrow(shardCap(c, cfg, lanes) - 1)
	defer func() {
		for range extra {
			e.release()
		}
	}()
	return measureCompiled(ctx, c, e.schedules, cfg, lanes, 1+extra)
}

// MeasureDetailed simulates the request and returns the attached
// activity counter with per-net statistics. Cancellation of ctx aborts
// the simulation promptly, returning ctx's error. On a budget trip
// (errors.Is(err, ErrBudgetExceeded)) the partial counter is returned
// WITH the error: its statistics are well defined through the cycle
// boundary recorded in the *BudgetError.
func (e *Engine) MeasureDetailed(ctx context.Context, req MeasureRequest) (*core.Counter, error) {
	nl, fp, err := e.requestNetlist(req.Netlist, req.Circuit)
	if err != nil {
		return nil, err
	}
	return e.measureNetlist(ctx, nl, fp, req.Config)
}

// Measure runs MeasureDetailed and summarizes the totals. On a budget
// trip (errors.Is(err, ErrBudgetExceeded)) the returned Activity holds
// the partial statistics through the last completed cycle boundary,
// alongside the error.
func (e *Engine) Measure(ctx context.Context, req MeasureRequest) (Activity, error) {
	nl, fp, err := e.requestNetlist(req.Netlist, req.Circuit)
	if err != nil {
		return Activity{}, err
	}
	counter, err := e.measureNetlist(ctx, nl, fp, req.Config)
	if err != nil {
		if counter != nil {
			return summarize(nl.Name, counter), err
		}
		return Activity{}, err
	}
	return summarize(nl.Name, counter), nil
}

// MeasurePower measures activity and evaluates the paper's
// three-component power model on it, using the request's technology
// constants or the engine default. Power is a per-cycle average, so a
// request that measures no cycles (Cycles: ExplicitZero) fails.
func (e *Engine) MeasurePower(ctx context.Context, req MeasureRequest) (power.Breakdown, Activity, error) {
	nl, fp, err := e.requestNetlist(req.Netlist, req.Circuit)
	if err != nil {
		return power.Breakdown{}, Activity{}, err
	}
	counter, err := e.measureNetlist(ctx, nl, fp, req.Config)
	if err != nil {
		return power.Breakdown{}, Activity{}, err
	}
	if counter.Cycles() == 0 {
		return power.Breakdown{}, Activity{}, fmt.Errorf("glitchsim: power of %q needs at least one measured cycle", nl.Name)
	}
	tech := e.tech
	if req.Tech != nil {
		tech = *req.Tech
	}
	return power.FromActivity(counter, tech), summarize(nl.Name, counter), nil
}

// MeasureMany measures every job of the batch on the engine's worker
// pool and returns one result per job, in job order. Per-job failures
// land in the corresponding MeasureResult and never abort the batch; the
// returned error is non-nil only when ctx is cancelled, in which case
// jobs that never ran carry the context's error in their result.
func (e *Engine) MeasureMany(ctx context.Context, req BatchRequest) ([]MeasureResult, error) {
	return e.measureMany(ctx, req.Jobs, req.Workers, nil)
}

// measureMany is the fan-out core behind MeasureMany, MeasureSeeds and
// the experiment drivers. done, when non-nil, is called once per
// completed job from the worker goroutines (concurrently, in completion
// order); the seed sweep and the multiplier tables turn it into Session
// events.
func (e *Engine) measureMany(ctx context.Context, jobs []MeasureJob, workers int, done func(int, *MeasureResult)) ([]MeasureResult, error) {
	results := make([]MeasureResult, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}

	// Resolve and compile each job's circuit up front and serially:
	// Compile panics on invalid netlists (as Measure does) and the panic
	// should surface on the caller's goroutine. Each distinct netlist
	// compiles once, and the cache makes that a lookup for circuits the
	// engine has seen before. Memory-budget admission happens here too,
	// before the job's netlist is ever compiled. A job that fails to
	// resolve or to be admitted carries the error in its result, like any
	// other per-job failure.
	nets := make([]*netlist.Netlist, len(jobs))
	compiled := make(map[*netlist.Netlist]*sim.Compiled, len(jobs))
	for i := range jobs {
		if jobs[i].Circuit.IsZero() {
			results[i].Err = fmt.Errorf("glitchsim: job %d names no circuit", i)
			continue
		}
		nl, err := e.Resolve(jobs[i].Circuit)
		if err != nil {
			results[i].Err = fmt.Errorf("glitchsim: job %d: %w", i, err)
			continue
		}
		if err := e.admitMemory(nl, e.fillDefaults(jobs[i].Config)); err != nil {
			results[i].Err = err
			continue
		}
		nets[i] = nl
		if compiled[nl] == nil {
			compiled[nl] = e.compiled(nl, jobs[i].Circuit.fingerprint)
		}
	}

	err := parallelEachCtx(ctx, len(jobs), e.workerCount(workers), func(i int) error {
		if results[i].Err != nil {
			// Resolution or admission already failed above.
		} else if err := e.acquire(ctx); err != nil {
			results[i].Err = err
		} else {
			cfg := e.fillDefaults(jobs[i].Config)
			counter, err := measureCompiled(ctx, compiled[nets[i]], e.schedules, cfg, e.laneCount(cfg), 1)
			e.release()
			if err != nil {
				results[i].Err = err
			} else {
				results[i].Counter = counter
				results[i].Activity = summarize(nets[i].Name, counter)
			}
		}
		if done != nil {
			done(i, &results[i])
		}
		return nil // per-job errors live in results, never abort the batch
	})
	if err != nil {
		// Mark jobs the cancelled pool never ran, so callers inspecting
		// results see why they are empty.
		for i := range results {
			if results[i].Err == nil && results[i].Counter == nil {
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// MeasureSeeds measures the request's circuit under each seed in
// parallel and merges the per-seed counters into one aggregate, which
// reads like a single measurement of len(Seeds)*Cycles cycles. Any
// Source in the config is ignored (each seed gets its own stream). The
// merge order is fixed (seed order), so the aggregate is deterministic.
func (e *Engine) MeasureSeeds(ctx context.Context, req SeedSweepRequest) (*core.Counter, error) {
	return e.measureSeeds(ctx, req, nil)
}

// measureSeeds runs the seed sweep for Engine.MeasureSeeds (emit nil)
// and Session.MeasureSeeds, which receives an EventSeed per finished
// seed and an EventResult with the merged aggregate.
func (e *Engine) measureSeeds(ctx context.Context, req SeedSweepRequest, emit func(Event)) (*core.Counter, error) {
	if len(req.Seeds) == 0 {
		return nil, fmt.Errorf("glitchsim: MeasureSeeds needs at least one seed")
	}
	nl, fp, err := e.requestNetlist(nil, req.Circuit)
	if err != nil {
		return nil, err
	}
	circuit := fingerprinted(nl, fp)
	jobs := make([]MeasureJob, len(req.Seeds))
	for i, seed := range req.Seeds {
		c := req.Config
		c.Seed = seed
		c.Source = nil
		jobs[i] = MeasureJob{Circuit: circuit, Config: c}
	}
	var done func(int, *MeasureResult)
	if emit != nil {
		done = func(i int, r *MeasureResult) {
			ev := Event{Kind: EventSeed, Index: i, Total: len(jobs), Err: r.Err}
			if r.Err == nil {
				act := r.Activity
				ev.Activity = &act
			}
			emit(ev)
		}
	}
	res, err := e.measureMany(ctx, jobs, req.Workers, done)
	if err != nil {
		return nil, err
	}
	agg := res[0].Counter
	for i, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("glitchsim: seed %d: %w", req.Seeds[i], r.Err)
		}
		if i == 0 {
			continue
		}
		if err := agg.Merge(r.Counter); err != nil {
			return nil, err
		}
	}
	if emit != nil {
		act := summarize(nl.Name, agg)
		emit(Event{Kind: EventResult, Total: 1, Activity: &act})
	}
	return agg, nil
}
