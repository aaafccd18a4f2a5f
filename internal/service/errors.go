package service

import (
	"context"
	"errors"
	"net/http"

	"glitchsim"
)

// The service's failure taxonomy: every non-2xx reply carries a stable
// machine-readable `code` alongside the human-readable `error` message,
// so clients branch on the code and never parse messages. The enum is
// documented in the README's "Resource limits & failure modes" section;
// codes are append-only — a code, once shipped, never changes meaning.
const (
	// CodeBadRequest: the request is malformed (bad JSON, bad query
	// parameter, missing required field). HTTP 400.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: the endpoint exists but not for this HTTP
	// method. HTTP 405.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodePayloadTooLarge: the request body exceeded the endpoint's size
	// bound. HTTP 413.
	CodePayloadTooLarge = "payload_too_large"
	// CodeUnknownCircuit: the circuit reference resolves to nothing —
	// not a registry name, not an uploaded fingerprint or module name.
	// The message lists the resolvable identifiers. HTTP 404.
	CodeUnknownCircuit = "unknown_circuit"
	// CodeUnknownJob: no job record with that ID. HTTP 404.
	CodeUnknownJob = "unknown_job"
	// CodeNotFound: the URL names no endpoint. HTTP 404.
	CodeNotFound = "not_found"
	// CodeBudgetExceeded: the measurement tripped its resource budget
	// (events, wall-clock or estimated memory); detail carries the
	// exhausted resource, the limit, the usage and the completed-cycle
	// boundary. HTTP 422.
	CodeBudgetExceeded = "budget_exceeded"
	// CodeOscillation: a simulated cycle failed to settle within the
	// guard time; detail names the nets still toggling. HTTP 422.
	CodeOscillation = "oscillation"
	// CodeCostExceeded: admission control rejected the request because
	// its estimated cost exceeds the server's configured Limits — before
	// anything was compiled or simulated. HTTP 422.
	CodeCostExceeded = "cost_exceeded"
	// CodeOverloaded: the engine is saturated and the request was shed
	// (or a measurement gave up waiting for an engine slot). Retry after
	// the Retry-After header. HTTP 429.
	CodeOverloaded = "overloaded"
	// CodeQueueFull: the async job queue is at capacity. HTTP 429.
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down and takes no new work.
	// HTTP 503.
	CodeDraining = "draining"
	// CodeUploadsDisabled: circuit uploads are configured off. HTTP 503.
	CodeUploadsDisabled = "uploads_disabled"
	// CodeJobsDisabled: the job subsystem failed to start or is
	// configured off. HTTP 503.
	CodeJobsDisabled = "jobs_disabled"
	// CodeJobFailed: the job ran and failed; the message carries the
	// recorded failure. HTTP 500 (on /result).
	CodeJobFailed = "job_failed"
	// CodeJobTimedOut: the job exhausted its deadline. HTTP 504.
	CodeJobTimedOut = "job_timed_out"
	// CodeJobCanceled: the job was canceled before finishing. HTTP 409.
	CodeJobCanceled = "job_canceled"
	// CodeJobNotFinished: the result was requested while the job is
	// still queued or running; retry after Retry-After. HTTP 409.
	CodeJobNotFinished = "job_not_finished"
	// CodeJobFinished: a cancel arrived after the job already reached a
	// terminal state. HTTP 409.
	CodeJobFinished = "job_finished"
	// CodeInternal: an unclassified server-side failure. HTTP 500.
	CodeInternal = "internal"
)

func (s *Server) writeError(w http.ResponseWriter, status int, code string, err error) {
	s.writeErrorDetail(w, status, code, err, nil)
}

// writeErrorDetail writes the error envelope with optional structured
// detail (the typed-failure payloads: budget trip accounting,
// oscillation hot nets, cost estimates).
func (s *Server) writeErrorDetail(w http.ResponseWriter, status int, code string, err error, detail map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = WriteJSON(w, ErrorResponse{
		Code:      code,
		Error:     err.Error(),
		Detail:    detail,
		RequestID: requestIDHeader(w),
	})
}

// writeBodyError maps a request-body read/decode failure onto the
// taxonomy: "too large" is 413 payload_too_large (the client must
// shrink the body), anything else 400 bad_request.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	status := statusForBodyError(err)
	code := CodeBadRequest
	if status == http.StatusRequestEntityTooLarge {
		code = CodePayloadTooLarge
	}
	s.writeError(w, status, code, err)
}

// writeResolveError maps circuit-resolution failures onto status codes:
// an unknown circuit reference is the client naming something that is
// not there (404, with the resolvable identifiers in the message); a
// circuit source that knew the name but failed to produce it is the
// server's fault (500).
func (s *Server) writeResolveError(w http.ResponseWriter, err error) {
	if isUnknownCircuit(err) {
		s.writeError(w, http.StatusNotFound, CodeUnknownCircuit, err)
		return
	}
	s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
}

// writeEngineError maps engine failures onto the taxonomy. A cancelled
// request context means the client went away: there is no one to
// answer, so nothing is written.
func (s *Server) writeEngineError(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		return
	}
	var be *glitchsim.BudgetError
	if errors.As(err, &be) {
		s.writeErrorDetail(w, http.StatusUnprocessableEntity, CodeBudgetExceeded, err, map[string]any{
			"resource":         be.Resource,
			"limit":            be.Limit,
			"used":             be.Used,
			"cycles_completed": be.Cycle,
		})
		return
	}
	var oe *glitchsim.OscillationError
	if errors.As(err, &oe) {
		s.writeErrorDetail(w, http.StatusUnprocessableEntity, CodeOscillation, err, map[string]any{
			"circuit": oe.Circuit,
			"cycle":   oe.Cycle,
			"guard":   oe.Guard,
			"nets":    oe.Names,
		})
		return
	}
	if errors.Is(err, glitchsim.ErrEngineBusy) {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, CodeOverloaded, err)
		return
	}
	s.writeError(w, http.StatusInternalServerError, CodeInternal, err)
}
