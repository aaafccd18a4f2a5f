package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// RetryPolicy caps how transient failures are retried: capped
// exponential backoff with jitter, up to a retry budget.
type RetryPolicy struct {
	// MaxAttempts bounds total execution attempts per job (default 3).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 100ms); each retry
	// doubles it up to MaxDelay (default 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// backoff returns the delay before retrying after the given (1-based)
// failed attempt: BaseDelay·2^(attempt-1) capped at MaxDelay, with the
// upper half jittered so a burst of failures does not retry in
// lockstep.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(rand.Int64N(int64(half)+1))
	}
	return d
}

// Options configures a Manager.
type Options struct {
	// BaseContext is the root context every job attempt derives from;
	// canceling it cancels all running jobs. It is required — pass
	// context.Background() (or a signal-bound context) from the process
	// entry point. The manager never mints its own root, so the
	// caller's cancellation stays plumbed end to end (the ctxbg
	// analyzer in internal/analysis enforces this repo-wide).
	BaseContext context.Context
	// Workers is the number of concurrent job executors (default 2).
	// Each worker runs one job at a time; within a job, the Executor
	// may fan out further (the Engine's own pool and concurrency bound
	// govern that).
	Workers int
	// QueueDepth bounds the submission queue (default 64). Admission
	// beyond it fails with ErrQueueFull — the manager never buffers
	// unboundedly.
	QueueDepth int
	// Timeout is the per-job deadline across all attempts (default 10
	// minutes; negative disables). A Submission.Timeout shortens it per
	// job.
	Timeout time.Duration
	// Retry governs transient-failure retries.
	Retry RetryPolicy
	// Store persists records across restarts (default NewMemStore()).
	Store Store
	// Injector, when non-nil, intercepts every attempt — test-only
	// fault injection (see FaultInjector).
	Injector FaultInjector
	// Logf receives operational log lines (store failures, recovered
	// panics). Nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Minute
	}
	o.Retry = o.Retry.withDefaults()
	if o.Store == nil {
		o.Store = NewMemStore()
	}
	return o
}

// maxRecordedEvents bounds the per-job event tail kept in the record
// (live subscribers additionally receive every event as it happens).
const maxRecordedEvents = 256

// subBuffer is each subscriber channel's capacity; a subscriber that
// falls further behind than this loses events rather than blocking the
// measurement (the record's tail is the catch-up path).
const subBuffer = 128

// job is the manager's live handle on one record: the Record plus the
// running attempt's cancel function and the event subscribers. Fields
// are guarded by the manager's mutex, except storeMu and stored.
type job struct {
	rec    Record
	cancel context.CancelCauseFunc // non-nil while an attempt is running
	subs   []chan Event
	// version numbers the snapshots taken for persist, in order.
	version uint64

	// storeMu orders this job's store writes, outside the manager's
	// mutex; stored is the version of the last snapshot written.
	storeMu sync.Mutex
	stored  uint64
}

// storeSnapshot is a copy of a job's record taken for persist, numbered so
// that a job's store writes land in the order their snapshots were
// taken.
type storeSnapshot struct {
	rec     Record
	version uint64
}

// snapshotLocked copies the record for persist. The caller holds the
// manager's mutex, or is the only goroutine that can see j.
func (j *job) snapshotLocked() storeSnapshot {
	j.version++
	return storeSnapshot{rec: j.rec.Clone(), version: j.version}
}

// Manager owns the job lifecycle: a bounded submission queue feeding a
// fixed worker pool, with retries, deadlines, panic containment,
// persistence and graceful drain. Create one with NewManager; all
// methods are safe for concurrent use.
type Manager struct {
	exec Executor
	opts Options

	queue chan *job
	stop  chan struct{}
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	draining bool
}

// NewManager starts a manager executing jobs through exec. Records
// found in the configured Store are recovered first: terminal records
// keep serving their results, queued/running records are reset to
// queued and re-enqueued (in creation order) ahead of new submissions.
func NewManager(exec Executor, opts Options) (*Manager, error) {
	if exec == nil {
		return nil, errors.New("jobs: NewManager needs an executor")
	}
	if opts.BaseContext == nil {
		return nil, errors.New("jobs: Options.BaseContext is required (pass context.Background() from the entry point)")
	}
	opts = opts.withDefaults()
	m := &Manager{
		exec: exec,
		opts: opts,
		stop: make(chan struct{}),
		jobs: make(map[string]*job),
	}

	recs, err := opts.Store.List()
	if err != nil {
		if recs == nil {
			return nil, err
		}
		m.logf("jobs: partial store recovery: %v", err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].CreatedAt.Before(recs[j].CreatedAt) })
	var pending []*job
	for _, rec := range recs {
		j := &job{rec: rec.Clone()}
		if !rec.State.Terminal() {
			// Attempts, Progress and the checkpoint payload survive the
			// restart: a recovered job resumes from its last persisted
			// checkpoint instead of re-running from cycle zero, and its
			// history stays honest.
			j.rec.State = StateQueued
			j.rec.StartedAt = time.Time{}
			j.rec.Events = appendEvent(j.rec.Events, Event{Kind: "state", State: StateQueued, Time: time.Now()})
			pending = append(pending, j)
		}
		m.jobs[j.rec.ID] = j
	}
	// The queue must hold every recovered job even when the store
	// outgrew the configured depth between runs.
	depth := opts.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	m.queue = make(chan *job, depth)
	for _, j := range pending {
		m.persist(j, j.snapshotLocked())
		m.queue <- j
	}

	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// persist writes a record snapshot to the store, unless a newer
// snapshot of the same job was written first. Snapshots are taken under
// the manager's mutex but written after it is released (so a slow
// store never blocks the manager), and the goroutines writing them race
// to the store: without the version check, a Submit's queued snapshot
// could land after the worker's terminal one and bring a finished job
// back to life on restart. Store failures degrade durability, never
// availability: they are logged and the job carries on.
func (m *Manager) persist(j *job, s storeSnapshot) {
	j.storeMu.Lock()
	defer j.storeMu.Unlock()
	if s.version <= j.stored {
		return
	}
	j.stored = s.version
	if err := m.opts.Store.Put(s.rec); err != nil {
		m.logf("jobs: persisting %s: %v", s.rec.ID, err)
	}
}

// Submit admits a new job, returning its queued record, or ErrQueueFull
// when the bounded queue is at capacity (the caller maps that to 429 +
// Retry-After) / ErrDraining during shutdown.
func (m *Manager) Submit(sub Submission) (Record, error) {
	if sub.Kind == "" {
		return Record{}, errors.New("jobs: submission needs a kind")
	}
	timeout := m.opts.Timeout
	if sub.Timeout > 0 && (timeout <= 0 || sub.Timeout < timeout) {
		timeout = sub.Timeout
	}
	j := &job{rec: Record{
		ID:          newID(),
		State:       StateQueued,
		Kind:        sub.Kind,
		RequestID:   sub.RequestID,
		Fingerprint: sub.Fingerprint,
		Request:     append(json.RawMessage(nil), sub.Request...),
		Timeout:     timeout,
		CreatedAt:   time.Now(),
	}}
	j.rec.Events = appendEvent(nil, Event{Kind: "state", State: StateQueued, Time: j.rec.CreatedAt})

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Record{}, ErrDraining
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		return Record{}, ErrQueueFull
	}
	m.jobs[j.rec.ID] = j
	snap := j.snapshotLocked()
	m.mu.Unlock()

	m.persist(j, snap)
	return snap.rec, nil
}

// Get returns a snapshot of the record for id.
func (m *Manager) Get(id string) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Record{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.rec.Clone(), nil
}

// List returns snapshots of every known record, newest first.
func (m *Manager) List() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.rec.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt.After(out[j].CreatedAt) })
	return out
}

// Stats is a point-in-time view of the manager's load, for health
// endpoints and Retry-After estimates.
type Stats struct {
	// Queued and Running count non-terminal jobs; QueueCap is the
	// admission bound; Workers the pool size.
	Queued   int  `json:"queued"`
	Running  int  `json:"running"`
	QueueCap int  `json:"queue_cap"`
	Workers  int  `json:"workers"`
	Draining bool `json:"draining,omitempty"`
}

// Stats returns the current load counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{QueueCap: m.opts.QueueDepth, Workers: m.opts.Workers, Draining: m.draining}
	for _, j := range m.jobs {
		switch j.rec.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	return st
}

// Cancel cancels the job: a queued job transitions to canceled
// immediately, a running one has its context canceled (the worker
// records the terminal state). The returned snapshot reflects the state
// at return, which for a running job is still "running" until the
// executor unwinds. ErrFinished reports a job already terminal.
func (m *Manager) Cancel(id string) (Record, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Record{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.rec.State.Terminal() {
		rec := j.rec.Clone()
		m.mu.Unlock()
		return rec, ErrFinished
	}
	if j.rec.State == StateQueued {
		snap := m.finishLocked(j, StateCanceled, nil, errCanceled, "")
		m.mu.Unlock()
		m.persist(j, snap)
		return snap.rec, nil
	}
	cancel := j.cancel
	rec := j.rec.Clone()
	m.mu.Unlock()
	if cancel != nil {
		cancel(errCanceled)
	}
	return rec, nil
}

// Subscribe returns the job's recorded event tail and, for a job that
// is not yet terminal, a live channel of subsequent events; the channel
// is closed when the job reaches a terminal state. stop unregisters the
// subscription (safe to call at any time, including after the close).
func (m *Manager) Subscribe(id string) (past []Event, live <-chan Event, stop func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	past = append([]Event(nil), j.rec.Events...)
	if j.rec.State.Terminal() {
		return past, nil, func() {}, nil
	}
	ch := make(chan Event, subBuffer)
	j.subs = append(j.subs, ch)
	stop = func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, s := range j.subs {
			if s == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
	}
	return past, ch, stop, nil
}

// Drain gracefully shuts the manager down: intake stops (Submit answers
// ErrDraining), queued jobs stay queued in the store for the next run,
// and running jobs get until ctx's deadline to finish. Jobs still
// running when the grace period expires are canceled and checkpointed
// back to queued in the store, so a restarted manager re-runs them.
// Drain returns once all workers have exited; calling it twice is safe.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		close(m.stop)
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.cancel != nil {
				j.cancel(errCheckpoint)
			}
		}
		m.mu.Unlock()
		<-done
	}
	return nil
}

// worker pulls queued jobs and runs them until the manager drains.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		select {
		case <-m.stop:
			return
		case j := <-m.queue:
			// A drain that raced the receive: leave the job queued (its
			// record is already persisted as such) for the next run.
			select {
			case <-m.stop:
				return
			default:
			}
			m.run(j)
		}
	}
}

// run executes one job to a terminal state (or a drain checkpoint).
func (m *Manager) run(j *job) {
	m.mu.Lock()
	if j.rec.State != StateQueued { // canceled while waiting
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(m.opts.BaseContext)
	stopTimer := func() {}
	if j.rec.Timeout > 0 {
		var tctx context.Context
		tctx, stopTimer = context.WithTimeoutCause(ctx, j.rec.Timeout, errTimeout)
		ctx = tctx
	}
	j.cancel = cancel
	j.rec.State = StateRunning
	j.rec.StartedAt = time.Now()
	snap := j.snapshotLocked()
	m.emitLocked(j, Event{Kind: "state", State: StateRunning})
	m.mu.Unlock()
	m.persist(j, snap)
	defer func() {
		stopTimer()
		cancel(nil)
	}()

	for {
		m.mu.Lock()
		j.rec.Attempts++
		// A resuming attempt (persisted checkpoint on record) keeps its
		// progress counters; only a from-scratch attempt starts clean.
		if len(j.rec.Checkpoint) == 0 {
			j.rec.Progress = Progress{}
		}
		j.rec.ResumedFromCycle = j.rec.CheckpointCycle
		attempt := j.rec.Attempts
		snapshot := j.rec.Clone()
		m.mu.Unlock()

		result, err := m.attempt(ctx, j, snapshot, attempt)
		if err == nil {
			m.finish(j, StateSucceeded, result, nil, "")
			return
		}
		if errors.Is(err, ErrCheckpointed) {
			// A voluntary stop at a persisted checkpoint (drain): park the
			// job back in the queue; the next run resumes it.
			m.checkpoint(j)
			return
		}
		if ctx.Err() != nil {
			m.finishFromContext(ctx, j, attempt, err)
			return
		}
		var pe *panicError
		if errors.As(err, &pe) {
			m.logf("jobs: job %s attempt %d panicked: %v", j.rec.ID, attempt, pe.val)
			m.finish(j, StateFailed, nil, fmt.Errorf("attempt %d panicked: %v", attempt, pe.val), pe.stack)
			return
		}
		if !IsTransient(err) || attempt >= m.opts.Retry.MaxAttempts {
			m.finish(j, StateFailed, nil, fmt.Errorf("attempt %d: %w", attempt, err), "")
			return
		}
		delay := m.opts.Retry.backoff(attempt)
		m.emit(j, Event{Kind: "retry", Attempt: attempt, Error: err.Error()})
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			m.finishFromContext(ctx, j, attempt, err)
			return
		}
	}
}

// finishFromContext maps the canceled job context's cause onto the
// terminal state: deadline → timed_out, drain checkpoint → back to
// queued, anything else → canceled.
func (m *Manager) finishFromContext(ctx context.Context, j *job, attempt int, err error) {
	cause := context.Cause(ctx)
	switch {
	case errors.Is(cause, errTimeout):
		m.finish(j, StateTimedOut, nil, fmt.Errorf("deadline exceeded on attempt %d: %w", attempt, err), "")
	case errors.Is(cause, errCheckpoint):
		m.checkpoint(j)
	default:
		m.finish(j, StateCanceled, nil, fmt.Errorf("canceled on attempt %d", attempt), "")
	}
}

// attempt runs one execution attempt, converting a panic anywhere below
// (executor, injector) into a *panicError so the worker — and the
// daemon — survive it.
func (m *Manager) attempt(ctx context.Context, j *job, rec Record, attempt int) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: string(debug.Stack())}
		}
	}()
	if inj := m.opts.Injector; inj != nil {
		if ferr := inj.BeforeAttempt(rec, attempt); ferr != nil {
			return nil, ferr
		}
	}
	return m.exec.Execute(ctx, rec, Hooks{
		Emit:       func(ev Event) { m.progress(j, ev) },
		Checkpoint: func(snapshot json.RawMessage, cycle int) { m.storeCheckpoint(j, snapshot, cycle) },
		Draining:   m.stop,
	})
}

// storeCheckpoint records and persists an executor checkpoint: the
// durability point of resumable execution. The snapshot supersedes any
// previous one; the "checkpoint" event carries the cycle as Index so
// the live stream shows checkpoints as they land.
func (m *Manager) storeCheckpoint(j *job, snapshot json.RawMessage, cycle int) {
	m.mu.Lock()
	j.rec.Checkpoint = append(json.RawMessage(nil), snapshot...)
	j.rec.CheckpointCycle = cycle
	m.emitLocked(j, Event{Kind: "checkpoint", Index: cycle})
	snap := j.snapshotLocked()
	m.mu.Unlock()
	m.persist(j, snap)
}

// panicError carries a recovered panic value and its stack through the
// error return of attempt.
type panicError struct {
	val   any
	stack string
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// progress records an executor progress event and updates the job's
// completion counters. A "resume-discarded" event means the attempt
// re-runs from cycle zero, so it resumed from nothing.
func (m *Manager) progress(j *job, ev Event) {
	m.mu.Lock()
	switch ev.Kind {
	case "resume-discarded":
		j.rec.ResumedFromCycle = 0
	case "seed", "row":
		j.rec.Progress.Done++
		if ev.Total > j.rec.Progress.Total {
			j.rec.Progress.Total = ev.Total
		}
	case "result":
		if j.rec.Progress.Total == 0 {
			j.rec.Progress.Total = 1
		}
		j.rec.Progress.Done = j.rec.Progress.Total
	}
	m.emitLocked(j, ev)
	m.mu.Unlock()
}

// emit records an event against the job and fans it out to live
// subscribers.
func (m *Manager) emit(j *job, ev Event) {
	m.mu.Lock()
	m.emitLocked(j, ev)
	m.mu.Unlock()
}

func (m *Manager) emitLocked(j *job, ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	j.rec.Events = appendEvent(j.rec.Events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // a stalled subscriber loses events, never blocks the job
		}
	}
}

// appendEvent appends to the bounded event tail, dropping the oldest
// entries past maxRecordedEvents.
func appendEvent(events []Event, ev Event) []Event {
	events = append(events, ev)
	if n := len(events); n > maxRecordedEvents {
		events = append(events[:0], events[n-maxRecordedEvents:]...)
	}
	return events
}

// finish moves the job to a terminal state, emits the final event,
// closes subscribers and persists the record.
func (m *Manager) finish(j *job, state State, result json.RawMessage, err error, stack string) {
	m.mu.Lock()
	snap := m.finishLocked(j, state, result, err, stack)
	m.mu.Unlock()
	m.persist(j, snap)
}

func (m *Manager) finishLocked(j *job, state State, result json.RawMessage, err error, stack string) storeSnapshot {
	j.rec.State = state
	j.rec.FinishedAt = time.Now()
	j.rec.Result = result
	j.rec.Stack = stack
	// Terminal records drop their (potentially large) checkpoint payload:
	// no worker will resume them. ResumedFromCycle stays, recording how
	// the final attempt started.
	j.rec.Checkpoint = nil
	j.rec.CheckpointCycle = 0
	j.cancel = nil
	if err != nil {
		j.rec.Error = err.Error()
	}
	if state == StateSucceeded {
		j.rec.Error = ""
	}
	ev := Event{Kind: "state", State: state}
	if j.rec.Error != "" {
		ev.Error = j.rec.Error
	}
	m.emitLocked(j, ev)
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	return j.snapshotLocked()
}

// checkpoint parks a drained-but-unfinished job back to queued in the
// store. Attempts, Progress and the persisted checkpoint payload are
// kept — the next manager run resumes from the last completed chunk,
// not from scratch — except that the interrupted attempt is uncounted:
// a drain is not a failure and must not consume the retry budget.
func (m *Manager) checkpoint(j *job) {
	m.mu.Lock()
	j.rec.State = StateQueued
	j.rec.StartedAt = time.Time{}
	j.rec.FinishedAt = time.Time{}
	if j.rec.Attempts > 0 {
		j.rec.Attempts--
	}
	j.cancel = nil
	m.emitLocked(j, Event{Kind: "state", State: StateQueued, Error: errCheckpoint.Error()})
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	snap := j.snapshotLocked()
	m.mu.Unlock()
	m.persist(j, snap)
}
