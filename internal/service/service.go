// Package service exposes a glitchsim.Engine over HTTP/JSON: the
// measurement and experiment drivers as request/response endpoints with
// optional NDJSON progress streaming, sharing one Engine (one compiled-
// netlist cache, one worker-pool configuration) across all concurrent
// requests. Request contexts are plumbed into the Engine, so a client
// disconnect cancels its simulation work promptly.
//
// Endpoints:
//
//	GET  /healthz                     liveness + engine cache statistics
//	GET  /v1/circuits                 list built-in and uploaded circuits
//	POST /v1/circuits                 upload a Verilog or JSON circuit
//	POST /v1/measure                  measure one circuit (multi-seed optional)
//	POST /v1/experiments/table1       Table 1: array vs wallace multipliers
//	POST /v1/experiments/table2       Table 2: sum/carry delay imbalance
//	POST /v1/experiments/table3       Table 3: retimed variant power breakdown
//	POST /v1/experiments/figure10     Figure 10: power vs flipflop sweep
//
// Every measurement endpoint's `circuit` parameter accepts a built-in
// registry name or the fingerprint handle POST /v1/circuits returned,
// so uploaded circuits measure exactly like built-ins (and share the
// Engine's fingerprint-keyed compiled cache). Unknown circuit
// references answer 404 with the resolvable identifiers; malformed
// uploads answer 400 with the parser's line-numbered message.
//
// Every /v1 endpoint except the upload also accepts GET with the same
// parameters as query strings, and `"stream": true` (or ?stream=1)
// switches the reply to newline-delimited JSON progress events
// terminated by a "done" event.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
	"glitchsim/internal/power"
	"glitchsim/internal/registry"
	"glitchsim/netlist"
)

// Server serves the glitchsim HTTP API from one shared Engine. It
// implements http.Handler.
type Server struct {
	engine        *glitchsim.Engine
	mux           *http.ServeMux
	start         time.Time
	baseCtx       context.Context
	uploads       *uploadStore
	uploadDir     string
	logf          func(format string, args ...any)
	jobOpts       *jobs.Options
	jobs          *jobs.Manager
	jobsErr       error
	defaultBudget glitchsim.Budget
	limits        Limits
}

// WithLogf routes the server's operational log lines (access log, job
// lifecycle, recovered panics) to the given printf-style function. The
// default discards them.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithBaseContext sets the root context for background work the server
// owns — async job attempts derive from it, so canceling it cancels
// every running job. The process entry point supplies it (typically its
// signal-bound context, or context.Background()); without it the job
// subsystem stays disabled and the /v1/jobs endpoints answer 503. The
// server deliberately never mints its own root context (the ctxbg
// analyzer enforces this), so cancellation stays the caller's decision.
func WithBaseContext(ctx context.Context) Option {
	return func(s *Server) { s.baseCtx = ctx }
}

// New returns a Server sharing the given Engine across all requests.
func New(e *glitchsim.Engine, opts ...Option) *Server {
	s := &Server{
		engine:  e,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		uploads: newUploadStore(DefaultUploadCapacity),
		logf:    func(string, ...any) {},
	}
	for _, o := range opts {
		o(s)
	}
	s.initUploadDisk()
	s.initJobs()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/circuits", s.handleCircuits)
	s.mux.HandleFunc("/v1/measure", s.handleMeasure)
	s.mux.HandleFunc("/v1/experiments/table1", s.experimentHandler("table1"))
	s.mux.HandleFunc("/v1/experiments/table2", s.experimentHandler("table2"))
	s.mux.HandleFunc("/v1/experiments/table3", s.experimentHandler("table3"))
	s.mux.HandleFunc("/v1/experiments/figure10", s.experimentHandler("figure10"))
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	return s
}

// ServeHTTP dispatches to the registered endpoints through the request
// middleware (request-ID, panic containment, access log).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.withMiddleware(s.mux.ServeHTTP)(w, r)
}

// healthzResponse is the /healthz body.
type healthzResponse struct {
	Status        string `json:"status"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Goroutines    int    `json:"goroutines"`
	Workers       int    `json:"workers"`
	Cache         struct {
		Size      int    `json:"size"`
		Capacity  int    `json:"capacity"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	// Engine reports simulation-slot occupancy: active == capacity means
	// the engine is saturated and expensive requests may be shed (429).
	Engine struct {
		Active   int `json:"active"`
		Capacity int `json:"capacity"`
	} `json:"engine"`
	Jobs *healthzJobs `json:"jobs,omitempty"`
}

// healthzJobs summarizes the job subsystem's load in /healthz.
type healthzJobs struct {
	Queued        int  `json:"queued"`
	Running       int  `json:"running"`
	QueueCapacity int  `json:"queue_capacity"`
	Workers       int  `json:"workers"`
	Draining      bool `json:"draining"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	var resp healthzResponse
	resp.Status = "ok"
	resp.UptimeSeconds = int64(time.Since(s.start).Seconds())
	resp.Goroutines = runtime.NumGoroutine()
	resp.Workers = s.engine.Workers()
	cs := s.engine.CacheStats()
	resp.Cache.Size = cs.Size
	resp.Cache.Capacity = cs.Capacity
	resp.Cache.Hits = cs.Hits
	resp.Cache.Misses = cs.Misses
	resp.Cache.Evictions = cs.Evictions
	resp.Engine.Active, resp.Engine.Capacity = s.engine.Load()
	if s.jobs != nil {
		st := s.jobs.Stats()
		resp.Jobs = &healthzJobs{
			Queued:        st.Queued,
			Running:       st.Running,
			QueueCapacity: st.QueueCap,
			Workers:       st.Workers,
			Draining:      st.Draining,
		}
	}
	s.writeOK(w, resp)
}

// MeasureParams is the /v1/measure request body (or query string).
type MeasureParams struct {
	// Circuit references the circuit to measure: a registry name (see
	// registry.Names) or the fingerprint of an uploaded circuit (POST
	// /v1/circuits).
	Circuit string `json:"circuit"`
	// Cycles: omitted = 500, explicit 0 = measure nothing (400 with
	// Power, which averages over measured cycles). Negative counts (here
	// and in Warmup, Lanes, CheckpointEvery) answer 400.
	Cycles *int `json:"cycles,omitempty"`
	// Warmup: omitted = 8, explicit 0 = measure from reset.
	Warmup *int `json:"warmup,omitempty"`
	// Seed selects the stimulus stream (omitted = 1). Ignored when
	// Seeds is set.
	Seed uint64 `json:"seed,omitempty"`
	// Seeds, when non-empty, runs one measurement per seed in parallel
	// and merges the counters (the reply reads like one long run).
	Seeds []uint64 `json:"seeds,omitempty"`
	// DSum/DCarry/Typical select the delay model, as the CLI flags do.
	DSum    int  `json:"dsum,omitempty"`
	DCarry  int  `json:"dcarry,omitempty"`
	Typical bool `json:"typical,omitempty"`
	// Inertial selects inertial instead of transport delay handling.
	Inertial bool `json:"inertial,omitempty"`
	// Lanes bounds the word-parallel stimulus lanes per measurement:
	// 1 forces the historical single-stream simulation, 0 keeps the
	// server's default (normally 64). Capped at glitchsim.MaxLanes.
	Lanes int `json:"lanes,omitempty"`
	// Power adds the three-component power breakdown to the reply.
	Power bool `json:"power,omitempty"`
	// Stream switches the reply to NDJSON progress events.
	Stream bool `json:"stream,omitempty"`
	// BudgetEvents bounds the measurement's kernel event count; a trip
	// answers 422 code "budget_exceeded". 0 keeps the server's default
	// budget (WithDefaultBudget), which may itself be unlimited.
	BudgetEvents uint64 `json:"budget_events,omitempty"`
	// BudgetMemoryBytes bounds the estimated memory footprint, enforced
	// at admission before compilation.
	BudgetMemoryBytes uint64 `json:"budget_memory_bytes,omitempty"`
	// BudgetWallMS bounds the measurement's wall-clock milliseconds.
	BudgetWallMS int `json:"budget_wall_ms,omitempty"`
	// CheckpointEvery, for async measure jobs, snapshots a resumable
	// checkpoint every that-many measured cycles: the job survives
	// drain/crash/restart from the last boundary, and a graceful drain
	// waits at most one chunk. 0 (or a Seeds sweep) disables
	// checkpointing; synchronous requests ignore it.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// budget resolves the request's wire budget fields.
func (p *MeasureParams) budget() glitchsim.Budget {
	return glitchsim.Budget{
		Events:      p.BudgetEvents,
		MemoryBytes: p.BudgetMemoryBytes,
		WallClock:   time.Duration(p.BudgetWallMS) * time.Millisecond,
	}
}

func (p *MeasureParams) config() glitchsim.Config {
	cfg := glitchsim.Config{Seed: p.Seed, Inertial: p.Inertial, Lanes: p.Lanes, CheckpointEvery: p.CheckpointEvery}
	if p.DSum != 0 || p.DCarry != 0 || p.Typical {
		dsum, dcarry := p.DSum, p.DCarry
		if dsum == 0 {
			dsum = 1
		}
		if dcarry == 0 {
			dcarry = 1
		}
		cfg.Delay = registry.DelayModel(dsum, dcarry, p.Typical)
	}
	cfg.Cycles = explicitZero(p.Cycles)
	cfg.Warmup = explicitZero(p.Warmup)
	cfg.Budget = p.budget()
	return cfg
}

// validate rejects negative counts. The Config sentinels would coerce
// them silently (a negative cycles or warmup to ExplicitZero, negative
// lanes to a single-stream run), so the wire refuses them instead. It
// also refuses power over zero measured cycles, which the engine
// cannot evaluate.
func (p *MeasureParams) validate() error {
	for _, f := range []struct {
		name string
		v    *int
	}{
		{"cycles", p.Cycles},
		{"warmup", p.Warmup},
		{"lanes", &p.Lanes},
		{"checkpoint_every", &p.CheckpointEvery},
	} {
		if f.v != nil && *f.v < 0 {
			return fmt.Errorf("%s must not be negative, got %d", f.name, *f.v)
		}
	}
	if p.Power && p.Cycles != nil && *p.Cycles == 0 {
		return fmt.Errorf("power needs at least one measured cycle, got cycles 0")
	}
	return nil
}

// explicitZero maps the wire's pointer convention onto the Config
// sentinel: absent = default, explicit 0 = really zero.
func explicitZero(v *int) int {
	switch {
	case v == nil:
		return 0
	case *v == 0:
		return glitchsim.ExplicitZero
	default:
		return *v
	}
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var p MeasureParams
	if !s.decodeParams(w, r, &p) {
		return
	}
	if err := p.validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	if p.Circuit == "" {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Errorf("missing circuit (available: %s)", strings.Join(s.engine.CircuitNames(), ", ")))
		return
	}
	nl, err := s.resolveCircuit(p.Circuit)
	if err != nil {
		s.writeResolveError(w, err)
		return
	}
	cfg := p.config()
	cfg.CheckpointEvery = 0 // a synchronous reply has nowhere to resume from; jobs own checkpointing
	if !s.admitMeasure(w, nl, cfg) {
		return
	}
	s.respond(w, r, p.Stream, func(sess *glitchsim.Session) (any, error) {
		return s.measure(sess, nl, cfg, &p)
	})
}

// respond runs fn in a session bound to the request: a streaming one
// whose events become NDJSON lines, or a func session that discards
// them before the reply is written as one JSON body.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, stream bool, fn func(*glitchsim.Session) (any, error)) {
	if stream {
		s.streamResponse(w, r, fn)
		return
	}
	sess := s.engine.NewSessionFunc(r.Context(), func(glitchsim.Event) {})
	defer sess.Close()
	resp, err := fn(sess)
	if err != nil {
		s.writeEngineError(w, r, err)
		return
	}
	s.writeOK(w, resp)
}

// measure runs the measurement described by p through the session,
// which publishes per-seed progress to its consumer.
func (s *Server) measure(sess *glitchsim.Session, nl *netlist.Netlist, cfg glitchsim.Config, p *MeasureParams) (*MeasureResponse, error) {
	if cfg.Budget.IsZero() {
		cfg.Budget = s.defaultBudget
	}
	// Kernel selection is deterministic per (circuit, config, engine
	// defaults), so the reply can name the kernel without threading it
	// out of the measurement itself. Seed sweeps run every seed on the
	// same kernel (the seed never influences selection).
	circuit := glitchsim.CircuitFromNetlist(nl)
	kernel, err := s.engine.SelectedKernel(glitchsim.MeasureRequest{Circuit: circuit, Config: cfg})
	if err != nil {
		return nil, err
	}
	if len(p.Seeds) > 0 {
		counter, err := sess.MeasureSeeds(glitchsim.SeedSweepRequest{Circuit: circuit, Config: cfg, Seeds: p.Seeds})
		if err != nil {
			return nil, err
		}
		resp := &MeasureResponse{
			Activity: ActivityFrom(glitchsim.ActivityFromCounter(nl.Name, counter)),
			Seeds:    len(p.Seeds),
			Kernel:   string(kernel),
		}
		if p.Power {
			bd := power.FromActivity(counter, s.engine.Tech())
			pw := PowerFrom(bd)
			resp.Power = &pw
		}
		return resp, nil
	}

	req := glitchsim.MeasureRequest{Circuit: circuit, Config: cfg}
	if p.Power {
		bd, act, err := sess.MeasurePower(req)
		if err != nil {
			return nil, err
		}
		pw := PowerFrom(bd)
		return &MeasureResponse{Activity: ActivityFrom(act), Power: &pw, Kernel: string(kernel)}, nil
	}
	act, err := sess.Measure(req)
	if err != nil {
		return nil, err
	}
	return &MeasureResponse{Activity: ActivityFrom(act), Kernel: string(kernel)}, nil
}

// ExperimentParams is the request body (or query string) of the
// /v1/experiments endpoints.
type ExperimentParams struct {
	// Cycles per measured point (omitted or 0 = the experiment's
	// default; negative answers 400).
	Cycles int `json:"cycles,omitempty"`
	// Seed selects the stimulus stream (omitted = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Targets overrides the Figure 10 retiming sweep.
	Targets []int `json:"targets,omitempty"`
	// Circuit overrides the subject of the retiming power sweeps
	// (table3, figure10) with a registry name or uploaded-circuit
	// fingerprint. The fixed-set experiments (table1, table2) reject it.
	Circuit string `json:"circuit,omitempty"`
	// Stream switches the reply to NDJSON progress events.
	Stream bool `json:"stream,omitempty"`
}

// validate rejects a negative cycle count, which the engine would read
// as ExplicitZero: no measured cycles, all-zero rows and no power.
func (p *ExperimentParams) validate() error {
	if p.Cycles < 0 {
		return fmt.Errorf("cycles must not be negative, got %d", p.Cycles)
	}
	return nil
}

// experimentHandler builds the handler for one experiment endpoint.
func (s *Server) experimentHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var p ExperimentParams
		if !s.decodeParams(w, r, &p) {
			return
		}
		if err := p.validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		req := glitchsim.ExperimentRequest{Cycles: p.Cycles, Seed: p.Seed, Targets: p.Targets}
		if p.Circuit != "" {
			if name == "table1" || name == "table2" {
				s.writeError(w, http.StatusBadRequest, CodeBadRequest,
					fmt.Errorf("experiment %s measures a fixed circuit set and takes no circuit", name))
				return
			}
			nl, err := s.resolveCircuit(p.Circuit)
			if err != nil {
				s.writeResolveError(w, err)
				return
			}
			req.Circuit = glitchsim.CircuitFromNetlist(nl)
		}
		s.respond(w, r, p.Stream, func(sess *glitchsim.Session) (any, error) {
			return s.experiment(sess, name, req)
		})
	}
}

// experiment runs one experiment by name through the session, which
// publishes per-row progress to its consumer.
func (s *Server) experiment(sess *glitchsim.Session, name string, req glitchsim.ExperimentRequest) (any, error) {
	switch name {
	case "table1", "table2":
		run := sess.Table1
		if name == "table2" {
			run = sess.Table2
		}
		rows, err := run(req)
		if err != nil {
			return nil, err
		}
		return RowsResponse{Rows: MultRowsFrom(rows)}, nil
	case "table3":
		rows, err := sess.Table3(req)
		if err != nil {
			return nil, err
		}
		return Table3Response{Rows: Table3RowsFrom(rows)}, nil
	case "figure10":
		res, err := sess.Figure10(req)
		if err != nil {
			return nil, err
		}
		return Fig10From(res), nil
	}
	return nil, fmt.Errorf("unknown experiment %q", name)
}

// streamResponse runs fn in a Session bound to the request context and
// streams its progress events as NDJSON lines, terminated by a "done"
// event carrying the final payload (or an "error" event).
func (s *Server) streamResponse(w http.ResponseWriter, r *http.Request, fn func(*glitchsim.Session) (any, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	// Streams pace themselves by the work, not the network: clear the
	// per-request write deadline so the server-wide WriteTimeout (sized
	// for buffered replies) cannot cut a long NDJSON tail mid-line.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sess := s.engine.NewSession(r.Context())
	type outcome struct {
		payload any
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		payload, err := fn(sess)
		done <- outcome{payload, err}
		sess.Close()
	}()
	for ev := range sess.Events() {
		if err := enc.Encode(EventFrom(ev)); err != nil {
			return // client gone; session context is cancelled with it
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	out := <-done
	if out.err != nil {
		if errors.Is(out.err, context.Canceled) && r.Context().Err() != nil {
			return
		}
		_ = enc.Encode(EventDTO{Kind: "error", Error: out.err.Error()})
		return
	}
	final := struct {
		Kind   string `json:"kind"`
		Result any    `json:"result"`
	}{Kind: "done", Result: out.payload}
	_ = enc.Encode(final)
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) decodeParams(w http.ResponseWriter, r *http.Request, v any) bool {
	switch r.Method {
	case http.MethodGet:
		if err := paramsFromQuery(r.URL.Query(), v); err != nil {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return false
		}
		return true
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			s.writeBodyError(w, fmt.Errorf("invalid JSON body: %w", err))
			return false
		}
		return true
	default:
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return false
	}
}

// statusForBodyError distinguishes "the body is too large" (413, the
// client must shrink it) from "the body is malformed" (400).
func statusForBodyError(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = WriteJSON(w, v)
}

// paramsFromQuery fills the params struct from URL query values using
// the same names as the JSON body.
func paramsFromQuery(q url.Values, v any) error {
	switch p := v.(type) {
	case *MeasureParams:
		p.Circuit = q.Get("circuit")
		var err error
		if p.Cycles, err = optInt(q, "cycles"); err != nil {
			return err
		}
		if p.Warmup, err = optInt(q, "warmup"); err != nil {
			return err
		}
		if p.Seed, err = parseUint(q, "seed"); err != nil {
			return err
		}
		if raw := q.Get("seeds"); raw != "" {
			for _, part := range strings.Split(raw, ",") {
				n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return fmt.Errorf("invalid seeds entry %q", part)
				}
				p.Seeds = append(p.Seeds, n)
			}
		}
		if n, err := optInt(q, "dsum"); err != nil {
			return err
		} else if n != nil {
			p.DSum = *n
		}
		if n, err := optInt(q, "dcarry"); err != nil {
			return err
		} else if n != nil {
			p.DCarry = *n
		}
		if n, err := optInt(q, "lanes"); err != nil {
			return err
		} else if n != nil {
			p.Lanes = *n
		}
		if p.BudgetEvents, err = parseUint(q, "budget_events"); err != nil {
			return err
		}
		if p.BudgetMemoryBytes, err = parseUint(q, "budget_memory_bytes"); err != nil {
			return err
		}
		if n, err := optInt(q, "budget_wall_ms"); err != nil {
			return err
		} else if n != nil {
			p.BudgetWallMS = *n
		}
		if n, err := optInt(q, "checkpoint_every"); err != nil {
			return err
		} else if n != nil {
			p.CheckpointEvery = *n
		}
		p.Typical = boolParam(q, "typical")
		p.Inertial = boolParam(q, "inertial")
		p.Power = boolParam(q, "power")
		p.Stream = boolParam(q, "stream")
		return nil
	case *ExperimentParams:
		var err error
		p.Circuit = q.Get("circuit")
		if n, err := optInt(q, "cycles"); err != nil {
			return err
		} else if n != nil {
			p.Cycles = *n
		}
		if p.Seed, err = parseUint(q, "seed"); err != nil {
			return err
		}
		if raw := q.Get("targets"); raw != "" {
			for _, part := range strings.Split(raw, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return fmt.Errorf("invalid targets entry %q", part)
				}
				p.Targets = append(p.Targets, n)
			}
		}
		p.Stream = boolParam(q, "stream")
		return nil
	}
	return fmt.Errorf("unsupported params type %T", v)
}

func optInt(q url.Values, key string) (*int, error) {
	raw := q.Get(key)
	if raw == "" {
		return nil, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return nil, fmt.Errorf("invalid %s %q", key, raw)
	}
	return &n, nil
}

func parseUint(q url.Values, key string) (uint64, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid %s %q", key, raw)
	}
	return n, nil
}

func boolParam(q url.Values, key string) bool {
	switch strings.ToLower(q.Get(key)) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}
