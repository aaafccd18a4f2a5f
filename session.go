package glitchsim

import (
	"context"
	"sync"

	"glitchsim/internal/core"
	"glitchsim/internal/power"
)

// EventKind classifies a Session progress event.
type EventKind string

const (
	// EventSeed reports one finished per-seed measurement of a seed
	// sweep; Index is the position in the request's seed list.
	EventSeed EventKind = "seed"
	// EventRow reports one finished row of an experiment (a multiplier
	// spec of Table 1/2, a retimed variant of Table 3 / Figure 10).
	EventRow EventKind = "row"
	// EventResult carries the final summarized activity of a completed
	// measurement.
	EventResult EventKind = "result"
)

// Event is one progress update streamed from a Session: per-seed and
// per-row completions as a sweep runs, then a final result. Exactly one
// of the payload pointers is set, matching Kind, except on a failed seed,
// which carries only Err. Events arrive in completion order, which under
// a parallel sweep is not index order — Index/Total position the event
// within its request. Engine methods emit nothing; the same drivers
// publish these events only when called through a Session.
type Event struct {
	Kind  EventKind
	Index int
	Total int
	// Activity is set on EventSeed and EventResult.
	Activity *Activity
	// Mult is set on EventRow for Table 1/2 rows.
	Mult *MultRow
	// Row is set on EventRow for Table 3 / Figure 10 rows.
	Row *Table3Row
	// Err reports a failed seed; the stream continues with the
	// remaining seeds.
	Err error
}

// Session is one logical measurement conversation with an Engine: it
// binds a context to a stream of progress events. Session methods block
// like their Engine counterparts and return the same typed results, but
// additionally publish an Event per completed seed/row to Events() — the
// feed a service streams to its client as NDJSON, or a TUI renders as a
// progress bar.
//
// A Session is single-conversation state: its methods may be called from
// one goroutine at a time (the Events channel is meant to be consumed
// from another). Close releases the session's context resources and
// closes the event channel; call it once no method is running, typically
// via defer.
type Session struct {
	e      *Engine
	ctx    context.Context
	cancel context.CancelFunc
	events chan Event
	fn     func(Event) // callback tap (NewSessionFunc); nil = channel mode
	once   sync.Once
}

// NewSession starts a measurement session whose lifetime is bounded by
// ctx. Cancelling ctx (or calling Close) aborts any in-flight session
// method promptly.
func (e *Engine) NewSession(ctx context.Context) *Session {
	// The buffer lets a parallel sweep run a few rows ahead of a consumer
	// that is busy writing the previous event to the network.
	return e.newSession(ctx, nil, 64)
}

// NewSessionFunc starts a session that delivers its progress events to
// fn instead of the Events channel — the tap an asynchronous job layer
// records progress through without dedicating a consumer goroutine per
// job. fn is called synchronously from the measurement's worker
// goroutines, possibly concurrently; it must be safe for concurrent use
// and return quickly (a slow tap stalls the sweep that called it); it
// must not be nil (pass func(Event) {} to discard events). The Events
// channel of a func session carries nothing, so it is unbuffered, and
// Close closes it as usual.
func (e *Engine) NewSessionFunc(ctx context.Context, fn func(Event)) *Session {
	return e.newSession(ctx, fn, 0)
}

func (e *Engine) newSession(ctx context.Context, fn func(Event), buffer int) *Session {
	ctx, cancel := context.WithCancel(ctx)
	return &Session{e: e, ctx: ctx, cancel: cancel, events: make(chan Event, buffer), fn: fn}
}

// Events returns the session's progress stream. The channel is closed by
// Close. Consumers that fall behind exert backpressure on the producing
// sweep (the channel is buffered but bounded); a consumer that stops
// reading entirely must cancel the session's context to release it.
// Sessions created with NewSessionFunc deliver to their callback
// instead; their channel never carries events.
func (s *Session) Events() <-chan Event { return s.events }

// Context returns the session's context, the one every session method
// measures under.
func (s *Session) Context() context.Context { return s.ctx }

// Close cancels the session's context and closes the event stream. It
// must not be called while a session method is still running (wait for
// the method to return first; cancel the context to force that).
func (s *Session) Close() {
	s.cancel()
	s.once.Do(func() { close(s.events) })
}

// emit publishes an event: synchronously to the callback of a
// NewSessionFunc session, otherwise onto the channel — dropping it only
// when the session is cancelled (so a vanished consumer cannot wedge
// the measurement pool).
func (s *Session) emit(ev Event) {
	if s.fn != nil {
		s.fn(ev)
		return
	}
	select {
	case s.events <- ev:
	case <-s.ctx.Done():
	}
}

// Measure measures one request and emits the summarized activity as an
// EventResult.
func (s *Session) Measure(req MeasureRequest) (Activity, error) {
	act, err := s.e.Measure(s.ctx, req)
	if err != nil {
		return act, err
	}
	s.emit(Event{Kind: EventResult, Total: 1, Activity: &act})
	return act, nil
}

// MeasurePower measures one request with the power model and emits the
// summarized activity as an EventResult, so a streaming power request
// carries the same event shape as a plain one.
func (s *Session) MeasurePower(req MeasureRequest) (power.Breakdown, Activity, error) {
	bd, act, err := s.e.MeasurePower(s.ctx, req)
	if err != nil {
		return bd, act, err
	}
	s.emit(Event{Kind: EventResult, Total: 1, Activity: &act})
	return bd, act, nil
}

// MeasureSeeds runs the seed sweep, emitting an EventSeed per finished
// seed in completion order and an EventResult with the merged aggregate.
func (s *Session) MeasureSeeds(req SeedSweepRequest) (*core.Counter, error) {
	return s.e.measureSeeds(s.ctx, req, s.emit)
}

// Table1 runs the Table 1 experiment, emitting an EventRow per finished
// multiplier measurement.
func (s *Session) Table1(req ExperimentRequest) ([]MultRow, error) {
	return s.e.table1(s.ctx, req, s.emit)
}

// Table2 runs the Table 2 experiment, emitting an EventRow per finished
// multiplier measurement.
func (s *Session) Table2(req ExperimentRequest) ([]MultRow, error) {
	return s.e.table2(s.ctx, req, s.emit)
}

// Table3 runs the Table 3 experiment, emitting an EventRow per finished
// retimed variant.
func (s *Session) Table3(req ExperimentRequest) ([]Table3Row, error) {
	return s.e.table3(s.ctx, req, s.emit)
}

// Figure10 runs the Figure 10 experiment: the unretimed subject is
// measured first and emitted as EventRow 0, then the retimed sweep
// points follow at Index i+1 (completion order). Total counts the
// before row plus every sweep point.
func (s *Session) Figure10(req ExperimentRequest) (Fig10Result, error) {
	return s.e.figure10(s.ctx, req, s.emit)
}
