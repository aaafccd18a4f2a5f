package service

import (
	"encoding/json"
	"io"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
	"glitchsim/internal/power"
	"glitchsim/netlist"
)

// The service's wire types: stable snake_case JSON shapes for the domain
// results. The cmd/glitchsim -format json mode reuses these encodings,
// so scripted pipelines see one schema whether they shell out to the CLI
// or call the HTTP service.

// ActivityDTO is the wire form of glitchsim.Activity.
type ActivityDTO struct {
	Circuit      string  `json:"circuit"`
	Cycles       int     `json:"cycles"`
	Transitions  uint64  `json:"transitions"`
	Useful       uint64  `json:"useful"`
	Useless      uint64  `json:"useless"`
	Glitches     uint64  `json:"glitches"`
	Rising       uint64  `json:"rising"`
	LOverF       float64 `json:"l_over_f"`
	BalanceLimit float64 `json:"balance_limit"`
}

// ActivityFrom converts a domain activity to its wire form.
func ActivityFrom(a glitchsim.Activity) ActivityDTO {
	return ActivityDTO{
		Circuit:      a.Circuit,
		Cycles:       a.Cycles,
		Transitions:  a.Transitions,
		Useful:       a.Useful,
		Useless:      a.Useless,
		Glitches:     a.Glitches,
		Rising:       a.Rising,
		LOverF:       a.LOverF(),
		BalanceLimit: a.BalanceLimitFactor(),
	}
}

// PowerDTO is the wire form of power.Breakdown, in the milliwatt/
// picofarad units of the paper's Table 3.
type PowerDTO struct {
	FFs        int     `json:"ffs"`
	AreaMM2    float64 `json:"area_mm2"`
	ClockCapPF float64 `json:"clock_cap_pf"`
	LogicMW    float64 `json:"logic_mw"`
	FlipflopMW float64 `json:"flipflop_mw"`
	ClockMW    float64 `json:"clock_mw"`
	TotalMW    float64 `json:"total_mw"`
}

// PowerFrom converts a power breakdown to its wire form.
func PowerFrom(b power.Breakdown) PowerDTO {
	return PowerDTO{
		FFs:        b.NumFFs,
		AreaMM2:    b.AreaMM2,
		ClockCapPF: b.ClockCapF * 1e12,
		LogicMW:    b.LogicW * 1e3,
		FlipflopMW: b.FlipflopW * 1e3,
		ClockMW:    b.ClockW * 1e3,
		TotalMW:    b.TotalW() * 1e3,
	}
}

// MultRowDTO is the wire form of one Table 1/2 row.
type MultRowDTO struct {
	Arch     string      `json:"arch"`
	Width    int         `json:"width"`
	DSum     int         `json:"dsum"`
	DCarry   int         `json:"dcarry"`
	Activity ActivityDTO `json:"activity"`
}

// MultRowsFrom converts Table 1/2 rows to their wire form.
func MultRowsFrom(rows []glitchsim.MultRow) []MultRowDTO {
	out := make([]MultRowDTO, len(rows))
	for i, r := range rows {
		out[i] = MultRowDTO{Arch: r.Arch, Width: r.Width, DSum: r.DSum, DCarry: r.DCarry, Activity: ActivityFrom(r.Activity)}
	}
	return out
}

// Table3RowDTO is the wire form of one Table 3 / Figure 10 row.
type Table3RowDTO struct {
	Circuit      int     `json:"circuit"`
	TargetPeriod int     `json:"target_period"`
	Period       int     `json:"period"`
	Latency      int     `json:"latency"`
	FFs          int     `json:"ffs"`
	AreaMM2      float64 `json:"area_mm2"`
	ClockCapPF   float64 `json:"clock_cap_pf"`
	LogicMW      float64 `json:"logic_mw"`
	FlipflopMW   float64 `json:"flipflop_mw"`
	ClockMW      float64 `json:"clock_mw"`
	TotalMW      float64 `json:"total_mw"`
	LOverF       float64 `json:"l_over_f"`
}

// Table3RowsFrom converts Table 3 / Figure 10 rows to their wire form.
func Table3RowsFrom(rows []glitchsim.Table3Row) []Table3RowDTO {
	out := make([]Table3RowDTO, len(rows))
	for i, r := range rows {
		out[i] = Table3RowDTO{
			Circuit:      r.Circuit,
			TargetPeriod: r.TargetPeriod,
			Period:       r.Period,
			Latency:      r.Latency,
			FFs:          r.FFs,
			AreaMM2:      r.AreaMM2,
			ClockCapPF:   r.ClockCapPF,
			LogicMW:      r.LogicMW,
			FlipflopMW:   r.FlipflopMW,
			ClockMW:      r.ClockMW,
			TotalMW:      r.TotalMW,
			LOverF:       r.LOverF,
		}
	}
	return out
}

// EventDTO is the wire form of one streamed progress event (one NDJSON
// line). Kind "done" terminates a stream and carries the final payload.
type EventDTO struct {
	Kind     string        `json:"kind"`
	Index    int           `json:"index"`
	Total    int           `json:"total"`
	Activity *ActivityDTO  `json:"activity,omitempty"`
	Mult     *MultRowDTO   `json:"mult,omitempty"`
	Row      *Table3RowDTO `json:"row,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// EventFrom converts a session progress event to its wire form.
func EventFrom(ev glitchsim.Event) EventDTO {
	dto := EventDTO{Kind: string(ev.Kind), Index: ev.Index, Total: ev.Total}
	if ev.Activity != nil {
		a := ActivityFrom(*ev.Activity)
		dto.Activity = &a
	}
	if ev.Mult != nil {
		m := MultRowsFrom([]glitchsim.MultRow{*ev.Mult})[0]
		dto.Mult = &m
	}
	if ev.Row != nil {
		r := Table3RowsFrom([]glitchsim.Table3Row{*ev.Row})[0]
		dto.Row = &r
	}
	if ev.Err != nil {
		dto.Error = ev.Err.Error()
	}
	return dto
}

// MeasureResponse is the /v1/measure reply.
type MeasureResponse struct {
	Activity ActivityDTO `json:"activity"`
	Power    *PowerDTO   `json:"power,omitempty"`
	// Seeds is the number of merged stimulus streams (0 for a plain
	// single-seed measurement).
	Seeds int `json:"seeds,omitempty"`
	// Kernel names the simulation kernel the measurement ran on
	// ("scalar", "wide-lockstep" or "wide-event"), so callers can
	// confirm the word-parallel fast path engaged.
	Kernel string `json:"kernel,omitempty"`
}

// RowsResponse is the reply of the Table 1/2 experiment endpoints.
type RowsResponse struct {
	Rows []MultRowDTO `json:"rows"`
}

// Table3Response is the reply of the Table 3 endpoint.
type Table3Response struct {
	Rows []Table3RowDTO `json:"rows"`
}

// Fig10Response is the reply of the Figure 10 endpoint: the subject
// measured before retiming plus the retimed sweep. (The endpoint
// previously answered the Table3Response shape; `rows` is unchanged,
// `subject` and `before` are new.)
type Fig10Response struct {
	Subject string         `json:"subject"`
	Before  Table3RowDTO   `json:"before"`
	Rows    []Table3RowDTO `json:"rows"`
}

// Fig10From converts a Figure 10 result to its wire form.
func Fig10From(res glitchsim.Fig10Result) Fig10Response {
	return Fig10Response{
		Subject: res.Subject,
		Before:  Table3RowsFrom([]glitchsim.Table3Row{res.Before})[0],
		Rows:    Table3RowsFrom(res.Points),
	}
}

// CircuitInfo is the fingerprint-addressed handle of one circuit: the
// reply of POST /v1/circuits and the upload entries of GET /v1/circuits.
type CircuitInfo struct {
	// Fingerprint is the structural identity (netlist.Fingerprint), the
	// handle measurement requests reference the circuit by.
	Fingerprint string `json:"fingerprint"`
	// Name is the circuit's module name.
	Name string `json:"name"`
	// Structure statistics.
	Cells   int `json:"cells"`
	Nets    int `json:"nets"`
	Inputs  int `json:"inputs"`
	Outputs int `json:"outputs"`
	FFs     int `json:"ffs"`
	// Depth is the unit-delay combinational depth (longest PI/DFF-to-
	// net path in cells).
	Depth int `json:"depth"`
}

// CircuitInfoFrom computes the handle of a netlist.
func CircuitInfoFrom(n *netlist.Netlist) CircuitInfo {
	return CircuitInfo{
		Fingerprint: n.Fingerprint(),
		Name:        n.Name,
		Cells:       n.NumCells(),
		Nets:        n.NumNets(),
		Inputs:      n.InputWidth(),
		Outputs:     n.OutputWidth(),
		FFs:         n.NumDFFs(),
		Depth:       n.LogicDepth(),
	}
}

// UploadResponse is the POST /v1/circuits reply: the stored circuit's
// handle plus any lint findings of warning severity (floating inputs,
// undriven nets, dead cells, combinational loops). Warnings do not
// reject the upload — the circuit is stored and measurable — but they
// usually mean the source does not describe what its author intended.
type UploadResponse struct {
	CircuitInfo
	// Warnings holds the warning-severity netlist.Lint findings, if any.
	Warnings []netlist.Finding `json:"warnings,omitempty"`
}

// CircuitsResponse is the GET /v1/circuits reply.
type CircuitsResponse struct {
	// Builtin lists every name the engine resolves: the built-in
	// registry plus the names of any custom circuit sources.
	Builtin []string `json:"builtin"`
	// Uploads lists the uploaded circuits, most recently used first.
	Uploads []CircuitInfo `json:"uploads"`
}

// UploadRequest is the POST /v1/circuits JSON envelope. (Raw bodies
// with a ?format= query parameter are the alternative shape.)
type UploadRequest struct {
	// Format is "verilog" or "json".
	Format string `json:"format"`
	// Source is the circuit description in that format.
	Source string `json:"source"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	// Code is the stable machine-readable failure class (the Code*
	// constants: "budget_exceeded", "oscillation", "queue_full",
	// "unknown_circuit", ...). Clients branch on Code; Error is for
	// humans and its wording is not part of the API.
	Code  string `json:"code"`
	Error string `json:"error"`
	// Detail carries the failure class's structured payload, when it has
	// one: budget trips report resource/limit/used/cycles_completed,
	// oscillation reports cycle/guard/nets, cost rejections report the
	// estimate that tripped.
	Detail map[string]any `json:"detail,omitempty"`
	// RequestID echoes the X-Request-Id of the failed request when the
	// error was produced by the panic-recovery middleware, so a client
	// report can be matched to the server's log line.
	RequestID string `json:"request_id,omitempty"`
}

// JobSubmitParams is the POST /v1/jobs request body. Exactly the
// parameter struct of the matching synchronous endpoint rides along
// under `measure` or `experiment`, so a caller converts a synchronous
// request to an async job by wrapping, not rewriting, it.
type JobSubmitParams struct {
	// Kind selects the work: "measure" (requires Measure) or one of
	// the experiment names "table1", "table2", "table3", "figure10"
	// (Experiment optional).
	Kind string `json:"kind"`
	// Measure is the /v1/measure parameter set for kind "measure".
	// Its Stream flag is ignored: job progress streams from
	// GET /v1/jobs/{id}/events instead.
	Measure *MeasureParams `json:"measure,omitempty"`
	// Experiment is the experiment parameter set for the table/figure
	// kinds. Its Stream flag is likewise ignored.
	Experiment *ExperimentParams `json:"experiment,omitempty"`
	// TimeoutSeconds shortens the server's per-job deadline for this
	// job (0 keeps the server default).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// JobProgressDTO is the wire form of a job's completion counters.
type JobProgressDTO struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobDTO is the wire form of one job record: the POST /v1/jobs reply
// and the GET /v1/jobs/{id} status body. The success payload is not
// inlined — GET /v1/jobs/{id}/result serves it once ResultReady.
type JobDTO struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Kind  string `json:"kind"`
	// RequestID is the X-Request-Id of the submitting request.
	RequestID string `json:"request_id,omitempty"`
	// Fingerprint identifies the subject circuit when the job has one.
	Fingerprint string         `json:"fingerprint,omitempty"`
	Attempts    int            `json:"attempts"`
	Progress    JobProgressDTO `json:"progress"`
	// CheckpointCycle is the measured cycle of the job's latest
	// persisted checkpoint (0 when none); ResumedFromCycle the cycle the
	// current/last attempt resumed from — non-zero proves a drain,
	// crash or retry continued persisted work instead of restarting.
	CheckpointCycle  int `json:"checkpoint_cycle,omitempty"`
	ResumedFromCycle int `json:"resumed_from_cycle,omitempty"`
	// Error/Stack describe a terminal failure (Stack only for a
	// recovered worker panic).
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
	// TimeoutSeconds is the job's deadline budget across all attempts.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// ResultReady reports that GET /v1/jobs/{id}/result will answer 200.
	ResultReady bool      `json:"result_ready"`
	CreatedAt   time.Time `json:"created_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// JobFrom converts a job record to its wire form.
func JobFrom(rec jobs.Record) JobDTO {
	return JobDTO{
		ID:               rec.ID,
		State:            string(rec.State),
		Kind:             rec.Kind,
		RequestID:        rec.RequestID,
		Fingerprint:      rec.Fingerprint,
		Attempts:         rec.Attempts,
		Progress:         JobProgressDTO{Done: rec.Progress.Done, Total: rec.Progress.Total},
		CheckpointCycle:  rec.CheckpointCycle,
		ResumedFromCycle: rec.ResumedFromCycle,
		Error:            rec.Error,
		Stack:            rec.Stack,
		TimeoutSeconds:   rec.Timeout.Seconds(),
		ResultReady:      rec.State == jobs.StateSucceeded,
		CreatedAt:        rec.CreatedAt,
		StartedAt:        rec.StartedAt,
		FinishedAt:       rec.FinishedAt,
	}
}

// JobsResponse is the GET /v1/jobs reply (newest first).
type JobsResponse struct {
	Jobs []JobDTO `json:"jobs"`
}

// WriteJSON encodes v to w with the service's canonical settings
// (two-space indentation, no HTML escaping) — the encoder the CLI's
// -format json mode shares.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
