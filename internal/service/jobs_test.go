package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
	"glitchsim/internal/logic"
	"glitchsim/internal/testutil"
	"glitchsim/netlist"
)

// fastRetry keeps retry-path tests quick.
var fastRetry = jobs.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

func newJobServer(t *testing.T, e *glitchsim.Engine, opts jobs.Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(e, WithJobOptions(opts), WithBaseContext(context.Background()))
	if s.Jobs() == nil {
		t.Fatal("job subsystem failed to start")
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// submitJob POSTs a job and returns the decoded 202 body.
func submitJob(t *testing.T, ts *httptest.Server, body string) JobDTO {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		defer resp.Body.Close()
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit status %d: %s", resp.StatusCode, e.Error)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	return decodeBody[JobDTO](t, resp)
}

// pollJob polls the status endpoint until the job reaches a terminal
// state, returning the final DTO.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobDTO {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status endpoint answered %d", resp.StatusCode)
		}
		dto := decodeBody[JobDTO](t, resp)
		if jobs.State(dto.State).Terminal() {
			return dto
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, dto.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsServiceLifecycle: submit → poll → result → events, end to
// end over HTTP, with the async result matching the synchronous
// endpoint byte for byte.
func TestJobsServiceLifecycle(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{})

	body := `{"kind":"measure","measure":{"circuit":"rca8","cycles":100,"seeds":[1,2,3]}}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("X-Request-Id", "lifecycle-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "lifecycle-test-1" {
		t.Errorf("X-Request-Id = %q, want echo of the client's", got)
	}
	sub := decodeBody[JobDTO](t, resp)
	if sub.ID == "" || sub.Kind != "measure" {
		t.Fatalf("submit reply %+v", sub)
	}
	if sub.RequestID != "lifecycle-test-1" {
		t.Errorf("job request_id = %q, want the submitting request's", sub.RequestID)
	}
	if sub.Fingerprint == "" {
		t.Error("job carries no circuit fingerprint")
	}

	final := pollJob(t, ts, sub.ID)
	if final.State != string(jobs.StateSucceeded) || !final.ResultReady {
		t.Fatalf("final state %q (result_ready=%v), error %q", final.State, final.ResultReady, final.Error)
	}
	if final.Progress.Done != 3 || final.Progress.Total != 3 {
		t.Errorf("progress %+v, want 3/3", final.Progress)
	}

	// The job result must be the same body the synchronous endpoint sends.
	jr, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", jr.StatusCode)
	}
	async := decodeBody[MeasureResponse](t, jr)
	sr, err := http.Post(ts.URL+"/v1/measure", "application/json",
		strings.NewReader(`{"circuit":"rca8","cycles":100,"seeds":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	sync := decodeBody[MeasureResponse](t, sr)
	if async.Activity != sync.Activity || async.Seeds != sync.Seeds || async.Kernel != sync.Kernel {
		t.Errorf("async result %+v != sync result %+v", async, sync)
	}

	// The events tail: lifecycle transitions plus per-seed progress,
	// ending in the terminal state.
	er, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer er.Body.Close()
	if ct := er.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var evs []jobs.Event
	dec := json.NewDecoder(er.Body)
	for dec.More() {
		var ev jobs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decoding event stream: %v", err)
		}
		evs = append(evs, ev)
	}
	seeds := 0
	for _, ev := range evs {
		if ev.Kind == "seed" {
			seeds++
		}
	}
	if seeds != 3 {
		t.Errorf("event stream has %d seed events, want 3", seeds)
	}
	if last := evs[len(evs)-1]; last.Kind != "state" || last.State != jobs.StateSucceeded {
		t.Errorf("stream ends with %+v, want terminal state event", last)
	}

	// And the collection endpoint knows the job.
	lr, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[JobsResponse](t, lr)
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == sub.ID
	}
	if !found {
		t.Errorf("GET /v1/jobs does not list job %s", sub.ID)
	}
}

// TestJobsServiceQueueFull: with one worker wedged and a depth-1 queue
// occupied, the next submission answers 429 with a Retry-After hint —
// the service never buffers beyond the configured bound.
func TestJobsServiceQueueFull(t *testing.T) {
	release := make(chan struct{})
	s, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{
		Workers:    1,
		QueueDepth: 1,
		Injector: jobs.InjectorFunc(func(jobs.Record, int) error {
			<-release // park the worker until the test is done asserting
			return nil
		}),
	})
	defer close(release)

	const body = `{"kind":"measure","measure":{"circuit":"rca8","cycles":10}}`
	running := submitJob(t, ts, body)
	// Wait for the worker to actually pick the first job up, so the
	// second one definitely lands in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Jobs().Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", running.ID)
		}
		time.Sleep(time.Millisecond)
	}
	submitJob(t, ts, body) // fills the queue

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	e := decodeBody[ErrorResponse](t, resp)
	if !strings.Contains(e.Error, "queue full") {
		t.Errorf("429 body %q does not name the queue", e.Error)
	}
}

// TestJobsServiceRetryThenSucceed: an injected transient fault on the
// first attempt is retried under backoff and the job still succeeds,
// with the retry visible in the event tail.
func TestJobsServiceRetryThenSucceed(t *testing.T) {
	faults := &jobs.ScriptedFaults{Steps: []jobs.FaultStep{
		{Err: jobs.Transient(fmt.Errorf("injected transient fault"))},
	}}
	_, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{Retry: fastRetry, Injector: faults})

	sub := submitJob(t, ts, `{"kind":"measure","measure":{"circuit":"rca8","cycles":10}}`)
	final := pollJob(t, ts, sub.ID)
	if final.State != string(jobs.StateSucceeded) {
		t.Fatalf("state %q, error %q", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one fault, one success)", final.Attempts)
	}
	if got := faults.Calls(); got != 2 {
		t.Errorf("injector intercepted %d attempts, want 2", got)
	}

	er, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(er.Body)
	er.Body.Close()
	if !strings.Contains(buf.String(), `"kind": "retry"`) && !strings.Contains(buf.String(), `"kind":"retry"`) {
		t.Errorf("event tail records no retry:\n%s", buf.String())
	}
}

// panickySource resolves one name normally on its first call (job
// admission) and panics on every later resolve (job execution) — the
// fault-injecting CircuitSource of the acceptance tests.
type panickySource struct {
	name  string
	nl    *netlist.Netlist
	calls atomic.Int32
}

func (p *panickySource) Resolve(name string) (*netlist.Netlist, bool, error) {
	if name != p.name {
		return nil, false, nil
	}
	if p.calls.Add(1) > 1 {
		panic("injected circuit source panic")
	}
	return p.nl, true, nil
}

func (p *panickySource) Names() []string { return []string{p.name} }

// TestRecoverServicePanic: a panic deep in job execution (here: a
// CircuitSource blowing up during resolution) fails that job with the
// recovered stack on record — and the daemon keeps serving: healthz
// still answers and the next job runs to success.
func TestRecoverServicePanic(t *testing.T) {
	src := &panickySource{name: "boomer", nl: glitchsim.NewRCA(8)}
	e := glitchsim.NewEngine(glitchsim.WithCircuitSource(src))
	_, ts := newJobServer(t, e, jobs.Options{Retry: fastRetry})

	sub := submitJob(t, ts, `{"kind":"measure","measure":{"circuit":"boomer","cycles":10}}`)
	final := pollJob(t, ts, sub.ID)
	if final.State != string(jobs.StateFailed) {
		t.Fatalf("state %q, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panicked") {
		t.Errorf("error %q does not mention the panic", final.Error)
	}
	if !strings.Contains(final.Stack, "goroutine") || !strings.Contains(final.Stack, "Resolve") {
		t.Errorf("recorded stack does not look like the panicking goroutine:\n%s", final.Stack)
	}

	// The result endpoint reports the failure, not a payload.
	rr, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusInternalServerError {
		t.Errorf("failed job's result endpoint answered %d, want 500", rr.StatusCode)
	}
	rr.Body.Close()

	// The daemon survived: liveness and fresh work both still fine.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after worker panic answered %d", hr.StatusCode)
	}
	hr.Body.Close()
	next := submitJob(t, ts, `{"kind":"measure","measure":{"circuit":"rca8","cycles":10}}`)
	if got := pollJob(t, ts, next.ID); got.State != string(jobs.StateSucceeded) {
		t.Errorf("job after panic ended %q, error %q", got.State, got.Error)
	}
}

// wedgeSource parks a measurement on its first stimulus vector until
// released, deterministically occupying an engine concurrency slot.
type wedgeSource struct {
	width   int
	started chan struct{}
	release chan struct{}
	once    sync.Once
	buf     logic.Vector
}

func (s *wedgeSource) Next() logic.Vector {
	s.once.Do(func() { close(s.started) })
	<-s.release
	if s.buf == nil {
		s.buf = make(logic.Vector, s.width)
	}
	return s.buf
}

func (s *wedgeSource) Width() int { return s.width }

// holdEngineSlot occupies the single concurrency slot of e until the
// returned release func runs.
func holdEngineSlot(t *testing.T, e *glitchsim.Engine) (release func()) {
	t.Helper()
	nl := glitchsim.NewRCA(8)
	src := &wedgeSource{width: nl.InputWidth(), started: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = e.Measure(context.Background(), glitchsim.MeasureRequest{
			Circuit: glitchsim.CircuitFromNetlist(nl), Config: glitchsim.Config{Cycles: 1, Source: src},
		})
	}()
	<-src.started
	var once sync.Once
	return func() {
		once.Do(func() { close(src.release) })
		<-done
	}
}

// TestJobsServiceCancelMidRun: DELETE on a running job (blocked waiting
// for an engine slot) cancels it promptly and the record lands in
// state canceled.
func TestJobsServiceCancelMidRun(t *testing.T) {
	e := glitchsim.NewEngine(glitchsim.WithMaxConcurrency(1))
	s, ts := newJobServer(t, e, jobs.Options{Workers: 1})
	release := holdEngineSlot(t, e)
	defer release()

	sub := submitJob(t, ts, `{"kind":"measure","measure":{"circuit":"rca8","cycles":10}}`)
	deadline := time.Now().Add(5 * time.Second)
	for s.Jobs().Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE answered %d", resp.StatusCode)
	}
	resp.Body.Close()

	final := pollJob(t, ts, sub.ID)
	if final.State != string(jobs.StateCanceled) {
		t.Fatalf("state after DELETE = %q, want canceled", final.State)
	}

	// Cancelling again reports the conflict.
	again, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp2, err := http.DefaultClient.Do(again)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE answered %d, want 409", resp2.StatusCode)
	}
	resp2.Body.Close()
}

// TestDrainServiceCheckpointRestart: the full restart story over HTTP.
// A server with an on-disk store is shut down while one job is running
// (wedged on a busy engine) and another is queued; the drain
// checkpoints both as queued in the store. A second server over the
// same directory re-runs them to completion and serves their results.
func TestDrainServiceCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	store1, err := jobs.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := glitchsim.NewEngine(glitchsim.WithMaxConcurrency(1))
	s1 := New(e1, WithJobOptions(jobs.Options{Workers: 1, Store: store1}), WithBaseContext(context.Background()))
	ts1 := httptest.NewServer(s1)
	release := holdEngineSlot(t, e1)

	const body = `{"kind":"measure","measure":{"circuit":"rca8","cycles":50,"seed":7}}`
	runningJob := submitJob(t, ts1, body)
	deadline := time.Now().Add(5 * time.Second)
	for s1.Jobs().Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queuedJob := submitJob(t, ts1, body)

	// Drain with a grace period the wedged job cannot meet: it must be
	// checkpointed back to queued, not lost and not waited on forever.
	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	err = s1.Drain(dctx)
	cancel()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	release()

	// The store now holds both jobs as queued work.
	recs, err := store1.List()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]jobs.State{}
	for _, r := range recs {
		states[r.ID] = r.State
	}
	if states[runningJob.ID] != jobs.StateQueued || states[queuedJob.ID] != jobs.StateQueued {
		t.Fatalf("store after drain = %v, want both queued", states)
	}

	// "Restart": a fresh engine and server over the same directory.
	store2, err := jobs.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(glitchsim.NewEngine(), WithJobOptions(jobs.Options{Workers: 2, Store: store2}), WithBaseContext(context.Background()))
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Drain(ctx)
	}()

	for _, id := range []string{runningJob.ID, queuedJob.ID} {
		final := pollJob(t, ts2, id)
		if final.State != string(jobs.StateSucceeded) {
			t.Fatalf("recovered job %s ended %q, error %q", id, final.State, final.Error)
		}
		rr, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if rr.StatusCode != http.StatusOK {
			t.Fatalf("recovered job %s result answered %d", id, rr.StatusCode)
		}
		got := decodeBody[MeasureResponse](t, rr)
		if got.Activity.Circuit != "rca8" {
			t.Errorf("recovered result %+v", got.Activity)
		}
	}
}

// TestJobsServiceValidation: admission rejects what it can see is
// broken — unknown kinds, missing circuits, unknown circuit names —
// without burning a queue slot.
func TestJobsServiceValidation(t *testing.T) {
	_, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{})
	cases := []struct {
		body string
		want int
	}{
		{`{"kind":"bake"}`, http.StatusBadRequest},
		{`{"kind":"measure"}`, http.StatusBadRequest},
		{`{"kind":"measure","measure":{"circuit":"no-such-circuit"}}`, http.StatusNotFound},
		{`{"kind":"table1","experiment":{"circuit":"rca8"}}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("submit %q answered %d, want %d", c.body, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}

	// Unknown job IDs 404 on every per-job endpoint.
	for _, path := range []string{"/v1/jobs/feedbeef00000000", "/v1/jobs/feedbeef00000000/result", "/v1/jobs/feedbeef00000000/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s answered %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestJobsServiceExperiment: the experiment kinds run through the job
// path too, with row progress counted.
func TestJobsServiceExperiment(t *testing.T) {
	_, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{})
	sub := submitJob(t, ts, `{"kind":"table1","experiment":{"cycles":20}}`)
	final := pollJob(t, ts, sub.ID)
	if final.State != string(jobs.StateSucceeded) {
		t.Fatalf("state %q, error %q", final.State, final.Error)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[RowsResponse](t, rr)
	if len(got.Rows) != 4 {
		t.Errorf("table1 job returned %d rows, want 4", len(got.Rows))
	}
}

// shadowSource serves custom8, an 8-bit ripple-carry adder, and shadows
// the built-in rca8 with a 4-bit one.
type shadowSource struct{}

func (shadowSource) Resolve(name string) (*netlist.Netlist, bool, error) {
	switch name {
	case "custom8":
		return glitchsim.NewRCA(8), true, nil
	case "rca8":
		return glitchsim.NewRCA(4), true, nil
	}
	return nil, false, nil
}

func (shadowSource) Names() []string { return []string{"custom8", "rca8"} }

// compactBody reads a JSON reply and returns it compacted.
func compactBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("reply is not JSON: %v\n%s", err, raw)
	}
	return buf.Bytes()
}

// TestCircuitSourceSyncMatchesJob: the synchronous endpoints resolve
// names through the Engine's circuit sources exactly as jobs do — a
// name only a source knows, and a source shadowing a built-in, measure
// the same circuit on /v1/measure as in a job, and an experiment takes
// a source's circuit as its subject.
func TestCircuitSourceSyncMatchesJob(t *testing.T) {
	e := glitchsim.NewEngine(glitchsim.WithCircuitSource(shadowSource{}))
	_, ts := newJobServer(t, e, jobs.Options{})
	for _, name := range []string{"custom8", "rca8"} {
		body := fmt.Sprintf(`{"circuit":%q,"cycles":10}`, name)
		sr, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		sync := compactBody(t, sr)
		if sr.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/measure answered %d: %s", name, sr.StatusCode, sync)
		}
		sub := submitJob(t, ts, fmt.Sprintf(`{"kind":"measure","measure":%s}`, body))
		if final := pollJob(t, ts, sub.ID); final.State != string(jobs.StateSucceeded) {
			t.Fatalf("%s: job state %q, error %q", name, final.State, final.Error)
		}
		jr, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if async := compactBody(t, jr); !bytes.Equal(async, sync) {
			t.Errorf("%s: job result %s, /v1/measure %s", name, async, sync)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/experiments/table3", "application/json",
		strings.NewReader(`{"circuit":"custom8","cycles":10}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := compactBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("table3 on custom8 answered %d: %s", resp.StatusCode, body)
	}

	// A name only the source knows is discoverable: the catalogue and
	// the missing-circuit message list it beside the built-ins.
	resp, err = http.Get(ts.URL + "/v1/circuits")
	if err != nil {
		t.Fatal(err)
	}
	listing := decodeBody[CircuitsResponse](t, resp)
	if !slices.Contains(listing.Builtin, "custom8") || !slices.Contains(listing.Builtin, "wallace16") {
		t.Errorf("GET /v1/circuits builtin = %v, want custom8 beside the built-ins", listing.Builtin)
	}
	resp, err = http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(`{"cycles":10}`))
	if err != nil {
		t.Fatal(err)
	}
	if eb := decodeBody[ErrorResponse](t, resp); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(eb.Error, "custom8") {
		t.Errorf("measure without a circuit answered %d %q, want 400 naming custom8", resp.StatusCode, eb.Error)
	}
}
