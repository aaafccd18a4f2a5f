package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
)

// The async job layer: long measurements and experiments submitted to
// POST /v1/jobs run on the jobs.Manager's bounded worker pool instead
// of holding the HTTP connection open for their whole runtime.
//
//	POST   /v1/jobs              submit (202; 429 + Retry-After when full)
//	GET    /v1/jobs              list known jobs, newest first
//	GET    /v1/jobs/{id}         status + progress
//	GET    /v1/jobs/{id}/result  the success payload (the same body the
//	                             synchronous endpoint would have sent)
//	GET    /v1/jobs/{id}/events  NDJSON event tail: recorded history,
//	                             then live follow until terminal
//	DELETE /v1/jobs/{id}         cancel (queued or running)
//
// Failures during execution are classified by the manager (failed /
// timed_out / canceled); a busy engine (glitchsim.ErrEngineBusy) is
// marked transient and retried with capped exponential backoff.

// DefaultJobOptions returns the manager configuration a Server uses
// when WithJobOptions is not given: a small worker pool over the shared
// Engine, a bounded queue, 10-minute job deadlines, 3-attempt retry
// budget, in-memory store.
func DefaultJobOptions() jobs.Options { return jobs.Options{} } // jobs applies its own defaults

// WithJobOptions configures the Server's job manager (queue depth,
// workers, deadlines, retry policy, persistent store, fault injector).
func WithJobOptions(opts jobs.Options) Option {
	return func(s *Server) { s.jobOpts = &opts }
}

// initJobs builds the job manager once the options are applied. A
// manager that cannot start (an unreadable store, typically) disables
// the job endpoints (503) instead of failing the whole service.
func (s *Server) initJobs() {
	opts := jobs.Options{}
	if s.jobOpts != nil {
		opts = *s.jobOpts
	}
	if opts.Logf == nil {
		opts.Logf = s.logf
	}
	if opts.BaseContext == nil {
		opts.BaseContext = s.baseCtx // nil without WithBaseContext: manager refuses, jobs 503
	}
	mgr, err := jobs.NewManager(jobs.ExecutorFunc(s.executeJob), opts)
	if err != nil {
		s.jobsErr = err
		s.logf("service: job subsystem disabled: %v", err)
		return
	}
	s.jobs = mgr
}

// Jobs returns the server's job manager (nil when disabled).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Drain gracefully shuts down the job subsystem: intake stops, running
// jobs get until ctx's deadline, stragglers are checkpointed back to
// queued in the store. The daemon calls this between http.Server
// shutdown and exit.
func (s *Server) Drain(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Drain(ctx)
}

// executeJob is the jobs.Executor: it re-parses the submitted payload
// and runs it through the shared Engine under the job's context, with
// session progress events tapped into the job record. Measure jobs
// with checkpoint_every set run chunked: every chunk boundary persists
// a resumable snapshot through h.Checkpoint, and the drain signal
// (h.Draining) stops the run at the next boundary so a restarted
// manager resumes from the recorded cycle instead of from zero.
func (s *Server) executeJob(ctx context.Context, rec jobs.Record, h jobs.Hooks) (json.RawMessage, error) {
	var p JobSubmitParams
	if err := json.Unmarshal(rec.Request, &p); err != nil {
		return nil, fmt.Errorf("decoding stored job request: %w", err)
	}
	sess := s.engine.NewSessionFunc(ctx, func(ev glitchsim.Event) { h.Emit(jobEventFrom(ev)) })
	defer sess.Close()

	var payload any
	switch rec.Kind {
	case "measure":
		if p.Measure == nil || p.Measure.Circuit == "" {
			return nil, errors.New("stored measure job names no circuit")
		}
		nl, err := s.resolveCircuit(p.Measure.Circuit)
		if err != nil {
			return nil, classifyJobError(err)
		}
		cfg := p.Measure.config()
		resumable := cfg.CheckpointEvery > 0 && len(p.Measure.Seeds) == 0
		if resumable {
			cfg.CheckpointSink = func(cp *glitchsim.MeasureCheckpoint) error {
				data, err := json.Marshal(cp)
				if err != nil {
					return fmt.Errorf("encoding checkpoint: %w", err)
				}
				h.Checkpoint(data, cp.Cycle)
				select {
				case <-h.Draining:
					return glitchsim.ErrStopAtCheckpoint
				default:
					return nil
				}
			}
			if len(rec.Checkpoint) > 0 {
				cp := new(glitchsim.MeasureCheckpoint)
				if err := json.Unmarshal(rec.Checkpoint, cp); err != nil {
					// A snapshot that no longer decodes is dropped, not
					// fatal: the attempt restarts from zero.
					h.Emit(jobs.Event{Kind: "resume-discarded", Error: err.Error()})
				} else {
					cfg.Resume = cp
				}
			}
		} else {
			// Seeds sweeps run each seed as its own stream; per-seed
			// snapshots are not resumable, so checkpointing is off.
			cfg.CheckpointEvery = 0
		}
		payload, err = s.measure(sess, nl, cfg, p.Measure)
		if err != nil && cfg.Resume != nil && errors.Is(err, glitchsim.ErrCheckpointMismatch) {
			// The persisted snapshot disagrees with the request (a code
			// or registry change between runs): discard it and rerun the
			// attempt from zero rather than failing the job.
			h.Emit(jobs.Event{Kind: "resume-discarded", Error: err.Error()})
			cfg.Resume = nil
			payload, err = s.measure(sess, nl, cfg, p.Measure)
		}
		if err != nil {
			if errors.Is(err, glitchsim.ErrCheckpointed) {
				return nil, jobs.ErrCheckpointed
			}
			return nil, classifyJobError(err)
		}
	default:
		req := glitchsim.ExperimentRequest{}
		if e := p.Experiment; e != nil {
			req.Cycles, req.Seed, req.Targets = e.Cycles, e.Seed, e.Targets
			if e.Circuit != "" {
				nl, err := s.resolveCircuit(e.Circuit)
				if err != nil {
					return nil, classifyJobError(err)
				}
				req.Circuit = glitchsim.CircuitFromNetlist(nl)
			}
		}
		var err error
		payload, err = s.experiment(sess, rec.Kind, req)
		if err != nil {
			return nil, classifyJobError(err)
		}
	}
	return json.Marshal(payload)
}

// classifyJobError marks retryable failures: a measurement that gave up
// waiting for an engine slot (the engine was loaded, not broken) is
// transient; everything else fails the job as-is.
func classifyJobError(err error) error {
	if errors.Is(err, glitchsim.ErrEngineBusy) {
		return jobs.Transient(err)
	}
	return err
}

// jobEventFrom converts a session progress event into the job layer's
// recordable form.
func jobEventFrom(ev glitchsim.Event) jobs.Event {
	out := jobs.Event{Kind: string(ev.Kind), Index: ev.Index, Total: ev.Total}
	if ev.Err != nil {
		out.Error = ev.Err.Error()
	}
	return out
}

// jobKinds is the accepted JobSubmitParams.Kind set.
var jobKinds = map[string]bool{
	"measure": true, "table1": true, "table2": true, "table3": true, "figure10": true,
}

// requireJobs answers 503 when the job subsystem is disabled.
func (s *Server) requireJobs(w http.ResponseWriter) bool {
	if s.jobs != nil {
		return true
	}
	err := errors.New("job subsystem unavailable")
	if s.jobsErr != nil {
		err = fmt.Errorf("job subsystem unavailable: %w", s.jobsErr)
	}
	s.writeError(w, http.StatusServiceUnavailable, CodeJobsDisabled, err)
	return false
}

// handleJobs serves the collection endpoint: POST submits, GET lists.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		recs := s.jobs.List()
		out := JobsResponse{Jobs: make([]JobDTO, len(recs))}
		for i, rec := range recs {
			out.Jobs[i] = JobFrom(rec)
		}
		s.writeOK(w, out)
	default:
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET or POST"))
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var p JobSubmitParams
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &p); err != nil {
		s.writeBodyError(w, fmt.Errorf("invalid JSON body: %w", err))
		return
	}
	if !jobKinds[p.Kind] {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("unknown job kind %q (one of: measure, table1, table2, table3, figure10)", p.Kind))
		return
	}

	// Validate what can be validated cheaply at admission, so obviously
	// broken submissions fail now (400/404) instead of as failed jobs.
	// Resolution errors that are not "unknown name" are deferred to
	// execution — they may be transient, and the retry policy owns them.
	fingerprint := ""
	resolveAhead := func(name string) bool {
		nl, err := s.resolveCircuit(name)
		switch {
		case err == nil:
			fingerprint = nl.Fingerprint()
		case isUnknownCircuit(err):
			s.writeResolveError(w, err)
			return false
		}
		return true
	}
	if p.Kind != "measure" && p.Experiment != nil {
		if err := p.Experiment.validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
	}
	switch p.Kind {
	case "measure":
		if p.Measure == nil || p.Measure.Circuit == "" {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf(`kind "measure" needs measure.circuit`))
			return
		}
		if err := p.Measure.validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		p.Measure.Stream = false
		if !resolveAhead(p.Measure.Circuit) {
			return
		}
	case "table1", "table2":
		if p.Experiment != nil && p.Experiment.Circuit != "" {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("experiment %s measures a fixed circuit set and takes no circuit", p.Kind))
			return
		}
	default: // table3, figure10
		if p.Experiment != nil {
			p.Experiment.Stream = false
			if p.Experiment.Circuit != "" && !resolveAhead(p.Experiment.Circuit) {
				return
			}
		}
	}

	payload, err := json.Marshal(&p)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	rec, err := s.jobs.Submit(jobs.Submission{
		Kind:        p.Kind,
		Request:     payload,
		RequestID:   requestIDFrom(r.Context()),
		Fingerprint: fingerprint,
		Timeout:     time.Duration(p.TimeoutSeconds * float64(time.Second)),
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", s.retryAfter())
		s.writeError(w, http.StatusTooManyRequests, CodeQueueFull, fmt.Errorf("job queue full: %w", err))
		return
	case errors.Is(err, jobs.ErrDraining):
		w.Header().Set("Retry-After", "5")
		s.writeError(w, http.StatusServiceUnavailable, CodeDraining, err)
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+rec.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = WriteJSON(w, JobFrom(rec))
}

// retryAfter estimates (in whole seconds, conservatively) when a
// rejected submission is worth retrying: proportional to the queue
// backlog per worker, at least one second.
func (s *Server) retryAfter() string {
	st := s.jobs.Stats()
	per := st.Queued / max(st.Workers, 1)
	return strconv.Itoa(max(1, per))
}

func isUnknownCircuit(err error) bool {
	var unknown *unknownCircuitError
	return errors.As(err, &unknown) || errors.Is(err, glitchsim.ErrUnknownCircuit)
}

// handleJob dispatches the per-job endpoints: /v1/jobs/{id},
// /v1/jobs/{id}/result and /v1/jobs/{id}/events.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if !s.requireJobs(w) {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		s.writeError(w, http.StatusNotFound, CodeUnknownJob, fmt.Errorf("missing job id"))
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		s.handleJobStatus(w, id)
	case sub == "" && r.Method == http.MethodDelete:
		s.handleJobCancel(w, id)
	case sub == "":
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET or DELETE"))
	case sub == "result" && r.Method == http.MethodGet:
		s.handleJobResult(w, id)
	case sub == "events" && r.Method == http.MethodGet:
		s.handleJobEvents(w, r, id)
	case sub == "result" || sub == "events":
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET"))
	default:
		s.writeError(w, http.StatusNotFound, CodeNotFound, fmt.Errorf("unknown job endpoint %q", sub))
	}
}

// writeJobError maps manager lookup failures onto status codes.
func (s *Server) writeJobError(w http.ResponseWriter, err error) {
	if errors.Is(err, jobs.ErrUnknownJob) {
		s.writeError(w, http.StatusNotFound, CodeUnknownJob, err)
		return
	}
	s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, id string) {
	rec, err := s.jobs.Get(id)
	if err != nil {
		s.writeJobError(w, err)
		return
	}
	s.writeOK(w, JobFrom(rec))
}

// handleJobResult serves the success payload verbatim — the same JSON
// body the synchronous endpoint would have answered — or maps the
// job's non-success state onto a status code: still pending → 409 with
// Retry-After, failed → 500, timed out → 504, canceled → 409.
func (s *Server) handleJobResult(w http.ResponseWriter, id string) {
	rec, err := s.jobs.Get(id)
	if err != nil {
		s.writeJobError(w, err)
		return
	}
	switch rec.State {
	case jobs.StateSucceeded:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(rec.Result, '\n'))
	case jobs.StateFailed:
		s.writeError(w, http.StatusInternalServerError, CodeJobFailed, fmt.Errorf("job failed: %s", rec.Error))
	case jobs.StateTimedOut:
		s.writeError(w, http.StatusGatewayTimeout, CodeJobTimedOut, fmt.Errorf("job timed out: %s", rec.Error))
	case jobs.StateCanceled:
		s.writeError(w, http.StatusConflict, CodeJobCanceled, fmt.Errorf("job was canceled"))
	default:
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusConflict, CodeJobNotFinished, fmt.Errorf("job not finished (state %q)", rec.State))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, id string) {
	rec, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrFinished):
		s.writeError(w, http.StatusConflict, CodeJobFinished, fmt.Errorf("job already finished (state %q)", rec.State))
	case err != nil:
		s.writeJobError(w, err)
	default:
		s.writeOK(w, JobFrom(rec))
	}
}

// handleJobEvents streams the job's event tail as NDJSON: the recorded
// history first, then (for a job still in flight) live events until the
// job reaches a terminal state or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, id string) {
	past, live, stop, err := s.jobs.Subscribe(id)
	if err != nil {
		s.writeJobError(w, err)
		return
	}
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	// A live follow legitimately outlives the server-wide WriteTimeout
	// (it tails the job until terminal); clear the write deadline for
	// this response only so the kernel doesn't kill the stream mid-tail.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeEv := func(ev jobs.Event) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, ev := range past {
		if !writeEv(ev) {
			return
		}
	}
	if live == nil {
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if !writeEv(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
