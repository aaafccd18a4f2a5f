// Package jobs is the durable asynchronous job subsystem behind the
// measurement service: a bounded submission queue feeding a worker
// pool, with classified outcomes, capped-exponential-backoff retries
// for transient failures, per-job deadlines, panic containment, and a
// pluggable Store so queued work and finished results survive a
// process restart.
//
// The package is deliberately ignorant of what a job *does*: execution
// is an injected Executor, so the HTTP layer (internal/service) can run
// measurement and experiment requests through the shared
// glitchsim.Engine while this package owns only the lifecycle:
//
//	queued ──▶ running ──▶ succeeded
//	   │          ├──────▶ failed      (exhausted retries, or panic)
//	   │          ├──────▶ timed_out   (per-job deadline expired)
//	   │          ├──────▶ canceled    (DELETE, or shutdown cancel)
//	   └──────────┴──────▶ queued      (drain checkpoint: re-run later)
//
// Admission is strictly bounded: Submit never buffers beyond the
// configured queue depth, returning ErrQueueFull for the caller to map
// to 429 + Retry-After. Drain stops intake, waits out the grace period
// for running jobs, and checkpoints whatever is still running back to
// queued in the Store, so a restarted manager re-runs exactly the work
// that did not finish.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: admitted, waiting for a worker (also the checkpoint
	// state a drained-but-unfinished job is restored to).
	StateQueued State = "queued"
	// StateRunning: a worker is executing an attempt.
	StateRunning State = "running"
	// StateSucceeded: terminal; the result payload is available.
	StateSucceeded State = "succeeded"
	// StateFailed: terminal; Error (and Stack, for a recovered panic)
	// describe the failure.
	StateFailed State = "failed"
	// StateCanceled: terminal; canceled by the client or at shutdown.
	StateCanceled State = "canceled"
	// StateTimedOut: terminal; the per-job deadline expired.
	StateTimedOut State = "timed_out"
)

// Terminal reports whether the state is final: no worker will touch the
// job again and its record is immutable from here on.
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCanceled, StateTimedOut:
		return true
	}
	return false
}

// Event is one progress update recorded against a job: the lifecycle
// transitions the manager emits (kind "state", with State set) and the
// per-seed/per-row completions the Executor reports while running. The
// events endpoint streams these as NDJSON.
type Event struct {
	// Kind classifies the event: "state" for lifecycle transitions,
	// "retry" for a scheduled backoff, or the executor's own kinds
	// ("seed", "row", "result" from the measurement session).
	Kind string `json:"kind"`
	// Index/Total position a progress event within its request.
	Index int `json:"index,omitempty"`
	Total int `json:"total,omitempty"`
	// State is set on "state" events.
	State State `json:"state,omitempty"`
	// Attempt is the 1-based attempt number, set on "retry" events.
	Attempt int `json:"attempt,omitempty"`
	// Error carries a failure message ("retry" and failing "state"
	// events, or a failed row the executor reported).
	Error string `json:"error,omitempty"`
	// Time stamps the event.
	Time time.Time `json:"time,omitzero"`
}

// Progress summarizes how far a running job has come, counted from the
// executor's progress events.
type Progress struct {
	// Done counts completed work items (seeds, rows); Total the number
	// expected, 0 while unknown.
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Record is the persistent state of one job: everything the Store
// snapshots and the status endpoint serves. The Request payload is
// opaque to this package — it is whatever the Executor needs to re-run
// the job after a restart.
type Record struct {
	// ID is the job's handle, assigned at submission.
	ID string `json:"id"`
	// State is the lifecycle state; see the package comment's diagram.
	State State `json:"state"`
	// Kind names the type of work ("measure", "table1", …); the
	// Executor dispatches on it.
	Kind string `json:"kind"`
	// RequestID is the X-Request-Id of the submitting HTTP request,
	// tying the job record back to the access log.
	RequestID string `json:"request_id,omitempty"`
	// Fingerprint is the structural identity (netlist.Fingerprint) of
	// the job's subject circuit, when it has one.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Request is the submitted payload, re-executed verbatim after a
	// restart.
	Request json.RawMessage `json:"request,omitempty"`
	// Result is the success payload (StateSucceeded only).
	Result json.RawMessage `json:"result,omitempty"`
	// Error describes the terminal failure (failed/canceled/timed_out).
	Error string `json:"error,omitempty"`
	// Stack is the recovered goroutine stack when a panic failed the
	// job.
	Stack string `json:"stack,omitempty"`
	// Attempts counts execution attempts so far (1-based once running).
	Attempts int `json:"attempts"`
	// Timeout is the per-job deadline across all attempts (0 = none);
	// persisted so a recovered job re-runs under the same budget.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Progress is the executor-reported completion count.
	Progress Progress `json:"progress"`
	// Checkpoint is the executor's latest resumable snapshot, opaque to
	// this package (the service stores a glitchsim.MeasureCheckpoint).
	// It is persisted through the Store at every Hooks.Checkpoint call,
	// survives drain/crash/restart, and is handed back to the Executor
	// in the Record so the next attempt resumes instead of restarting.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// CheckpointCycle is the measurement cycle Checkpoint was taken at.
	CheckpointCycle int `json:"checkpoint_cycle,omitempty"`
	// ResumedFromCycle reports the cycle the job's current (or last)
	// attempt resumed from: 0 for a fresh start or a discarded
	// checkpoint (a "resume-discarded" event), the checkpoint cycle
	// after a drain/crash/retry picked up persisted work.
	ResumedFromCycle int `json:"resumed_from_cycle,omitempty"`
	// Events is the bounded tail of the job's event history (the live
	// stream additionally reaches subscribers as it happens).
	Events []Event `json:"events,omitempty"`

	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// Clone returns a deep copy of the record, so callers can hold it
// without racing the manager's mutations.
func (r Record) Clone() Record {
	c := r
	c.Request = append(json.RawMessage(nil), r.Request...)
	c.Result = append(json.RawMessage(nil), r.Result...)
	c.Checkpoint = append(json.RawMessage(nil), r.Checkpoint...)
	c.Events = append([]Event(nil), r.Events...)
	return c
}

// Submission is the caller-provided part of a new job.
type Submission struct {
	// Kind dispatches execution; must be non-empty.
	Kind string
	// Request is the opaque payload handed back to the Executor.
	Request json.RawMessage
	// RequestID/Fingerprint annotate the record (optional).
	RequestID   string
	Fingerprint string
	// Timeout overrides the manager's per-job deadline for this job
	// when positive and shorter than the configured Timeout.
	Timeout time.Duration
}

// Hooks is the manager-provided side channel of one execution attempt:
// progress events, checkpoint persistence and the drain signal. All
// fields are non-nil/usable for every attempt.
type Hooks struct {
	// Emit publishes a progress event into the job's record and live
	// stream. Safe for concurrent use — batch executors report from
	// many goroutines.
	Emit func(Event)
	// Checkpoint persists a resumable snapshot against the job record
	// (Record.Checkpoint/CheckpointCycle) through the Store — the
	// durability point of checkpointed execution. Safe for concurrent
	// use; each call supersedes the previous snapshot.
	Checkpoint func(snapshot json.RawMessage, cycle int)
	// Draining is closed when the manager begins a graceful drain.
	// Checkpoint-aware executors stop at their next chunk boundary —
	// persisting via Checkpoint and returning ErrCheckpointed — which
	// bounds drain latency to one chunk instead of the full job.
	Draining <-chan struct{}
}

// Executor runs one job attempt. The context carries the job's
// deadline and is canceled by DELETE and at shutdown; implementations
// must honour it promptly. h carries the attempt's progress/checkpoint
// hooks (see Hooks). The returned payload becomes the job's Result.
//
// A Record with a non-empty Checkpoint is a resume request: the
// executor should continue from that snapshot rather than from zero.
// Returning ErrCheckpointed (optionally wrapped) parks the job back in
// the queue with its persisted checkpoint — used for voluntary stops
// at drain. An error wrapped with Transient is retried under the
// manager's backoff policy; any other error (or a panic, which the
// manager recovers and records with its stack) fails the job.
type Executor interface {
	Execute(ctx context.Context, rec Record, h Hooks) (json.RawMessage, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(ctx context.Context, rec Record, h Hooks) (json.RawMessage, error)

// Execute implements Executor.
func (f ExecutorFunc) Execute(ctx context.Context, rec Record, h Hooks) (json.RawMessage, error) {
	return f(ctx, rec, h)
}

// Sentinel errors of the admission and lifecycle surface.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity. The service maps it to 429 with Retry-After.
	ErrQueueFull = errors.New("jobs: submission queue full")
	// ErrDraining rejects submissions after Drain has begun.
	ErrDraining = errors.New("jobs: manager draining")
	// ErrUnknownJob reports an ID no record exists for.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrFinished reports an operation (cancel) on a terminal job.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrCheckpointed, returned by an Executor, reports a voluntary stop
	// at a persisted checkpoint (typically on the Hooks.Draining
	// signal): the job is parked back in the queue — not failed — and
	// the interrupted attempt does not count against the retry budget.
	ErrCheckpointed = errors.New("jobs: execution stopped at a checkpoint")

	// errTimeout/errCanceled/errCheckpoint are the context causes the
	// manager distinguishes terminal states by.
	errTimeout    = errors.New("jobs: job deadline exceeded")
	errCanceled   = errors.New("jobs: job canceled")
	errCheckpoint = errors.New("jobs: checkpointed at shutdown")
)

// transientError marks an error as retryable.
type transientError struct{ err error }

func (t *transientError) Error() string { return fmt.Sprintf("transient: %v", t.err) }
func (t *transientError) Unwrap() error { return t.err }

// Transient wraps err so the manager retries the attempt under the
// backoff policy instead of failing the job. Executors classify their
// own failures: a busy engine slot or an injected fault is transient, a
// malformed request is not. Wrapping nil returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// with Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// newID returns a fresh job handle: 16 hex digits, filesystem- and
// URL-safe (it is the Store key and the REST path element).
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; satisfy the
		// linter without inventing a weaker fallback.
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}
