package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"glitchsim/internal/jobs"
	"glitchsim/internal/service"
)

// client is one closed-loop client: one keep-alive connection to the
// server, one operation in flight at a time.
type client struct {
	hc   *http.Client
	base string
	// ridPrefix tags every X-Request-Id this client sends, so the traced
	// pass can match handler spans to operations.
	ridPrefix string
}

func newClient(base, ridPrefix string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base, ridPrefix: ridPrefix}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is the decoded outcome of one operation.
type reply struct {
	// Measure is the activity reply of a measure op, or the job result of
	// an upload op.
	Measure  *service.MeasureResponse
	Table1   service.RowsResponse
	Table2   service.RowsResponse
	Table3   service.Table3Response
	Figure10 service.Fig10Response
	// Upload-op bookkeeping: the job's ID, how many checkpoint events its
	// event stream carried, and (when requested) its final status.
	JobID       string
	Checkpoints int
	Job         *service.JobDTO
	// RequestIDs lists the X-Request-Id of every request the op sent.
	RequestIDs []string
}

// canonical renders the part of a reply the oracle compares: the
// simulated statistics (activity, power, kernel, experiment rows), not
// IDs or timestamps.
func (r *reply) canonical(kind string) ([]byte, error) {
	if kind == kindSweep {
		return json.Marshal([]any{r.Table1, r.Table2, r.Table3, r.Figure10})
	}
	return json.Marshal(r.Measure)
}

// run executes one operation and checks its reply. withStatus also
// fetches an upload op's final job status (the traced pass reads queue
// and run times from it).
func (c *client) run(ctx context.Context, o *op, withStatus bool) (*reply, error) {
	r := &reply{}
	rid := func() string {
		id := fmt.Sprintf("%s-%d-%d", c.ridPrefix, o.Index, len(r.RequestIDs))
		r.RequestIDs = append(r.RequestIDs, id)
		return id
	}
	switch o.Kind {
	case kindMeasure:
		r.Measure = new(service.MeasureResponse)
		if err := c.do(ctx, http.MethodPost, "/v1/measure", o.Body, rid(), r.Measure); err != nil {
			return r, err
		}
		return r, checkActivity(r.Measure, *o.Measure.Cycles)
	case kindSweep:
		outs := []any{&r.Table1, &r.Table2, &r.Table3, &r.Figure10}
		for i, name := range experiments {
			if err := c.do(ctx, http.MethodPost, "/v1/experiments/"+name, o.Body, rid(), outs[i]); err != nil {
				return r, err
			}
		}
		return r, checkSweep(r)
	case kindUpload:
		return r, c.runUpload(ctx, o, r, rid, withStatus)
	}
	return r, fmt.Errorf("unknown op kind %q", o.Kind)
}

func (c *client) runUpload(ctx context.Context, o *op, r *reply, rid func() string, withStatus bool) error {
	var up service.UploadResponse
	if err := c.do(ctx, http.MethodPost, "/v1/circuits?format=verilog", o.Verilog, rid(), &up); err != nil {
		return err
	}
	if up.Fingerprint != o.Fingerprint || len(up.Warnings) > 0 {
		return fmt.Errorf("upload: fingerprint %s (want %s), %d lint warnings", up.Fingerprint, o.Fingerprint, len(up.Warnings))
	}
	var job service.JobDTO
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", o.Body, rid(), &job); err != nil {
		return err
	}
	r.JobID = job.ID
	state, checkpoints, err := c.follow(ctx, "/v1/jobs/"+job.ID+"/events", rid())
	if err != nil {
		return err
	}
	r.Checkpoints = checkpoints
	if state != jobs.StateSucceeded {
		return fmt.Errorf("job %s ended %s", job.ID, state)
	}
	r.Measure = new(service.MeasureResponse)
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil, rid(), r.Measure); err != nil {
		return err
	}
	if withStatus {
		r.Job = new(service.JobDTO)
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+job.ID, nil, rid(), r.Job); err != nil {
			return err
		}
	}
	return checkActivity(r.Measure, *o.Measure.Cycles)
}

// follow tails a job's NDJSON event stream until the server closes it at
// the job's terminal state, and returns that state and the number of
// checkpoint events seen.
func (c *client) follow(ctx context.Context, path, rid string) (jobs.State, int, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil, rid)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var state jobs.State
	checkpoints := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", 0, fmt.Errorf("job events: %w", err)
		}
		switch {
		case ev.Kind == "checkpoint":
			checkpoints++
		case ev.Kind == "state" && ev.State.Terminal():
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", 0, fmt.Errorf("job events: %w", err)
	}
	return state, checkpoints, nil
}

// do sends one request and decodes its JSON reply into out; a non-2xx
// status is an error.
func (c *client) do(ctx context.Context, method, path string, body []byte, rid string, out any) error {
	resp, err := c.send(ctx, method, path, body, rid)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

// send issues a request; the caller owns the body of a 2xx response.
func (c *client) send(ctx context.Context, method, path string, body []byte, rid string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// checkActivity applies the reply invariants every measurement must
// satisfy; the oracle later checks the values themselves.
func checkActivity(m *service.MeasureResponse, cycles int) error {
	a := m.Activity
	if a.Cycles != cycles || a.Transitions != a.Useful+a.Useless || a.Useful == 0 || m.Kernel == "" {
		return fmt.Errorf("measure reply for %s fails invariants: cycles %d (want %d), transitions %d, useful %d, useless %d, kernel %q",
			a.Circuit, a.Cycles, cycles, a.Transitions, a.Useful, a.Useless, m.Kernel)
	}
	return nil
}

func checkSweep(r *reply) error {
	for _, rows := range [][]service.MultRowDTO{r.Table1.Rows, r.Table2.Rows} {
		if len(rows) != 4 {
			return fmt.Errorf("multiplier table has %d rows, want 4", len(rows))
		}
		for _, row := range rows {
			if row.Activity.Cycles != experimentCycles {
				return fmt.Errorf("table row %s%d measured %d cycles, want %d", row.Arch, row.Width, row.Activity.Cycles, experimentCycles)
			}
		}
	}
	if len(r.Table3.Rows) != 4 || len(r.Figure10.Rows) == 0 {
		return fmt.Errorf("power sweep has %d table3 rows and %d figure10 rows", len(r.Table3.Rows), len(r.Figure10.Rows))
	}
	return nil
}
