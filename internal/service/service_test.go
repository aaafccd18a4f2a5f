package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"glitchsim"
	"glitchsim/internal/jobs"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(glitchsim.NewEngine(), WithBaseContext(context.Background())))
	t.Cleanup(ts.Close)
	return ts
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	return v
}

// TestServiceMeasureSmoke: one POST /v1/measure against a shared engine
// returns the same numbers as the library API.
func TestServiceMeasureSmoke(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
		strings.NewReader(`{"circuit":"rca8","cycles":100,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := decodeBody[MeasureResponse](t, resp)

	want, err := glitchsim.NewEngine().Measure(context.Background(), glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)),
		Config:  glitchsim.Config{Cycles: 100, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Activity.Transitions != want.Transitions || got.Activity.Useful != want.Useful ||
		got.Activity.Useless != want.Useless || got.Activity.Circuit != "rca8" {
		t.Errorf("service activity %+v, library %+v", got.Activity, want)
	}
	if got.Kernel != string(glitchsim.KernelWideLockstep) {
		t.Errorf("kernel = %q, want %q", got.Kernel, glitchsim.KernelWideLockstep)
	}
}

// TestServiceMeasureKernelField: the reply names the kernel the
// measurement ran on, per delay model and lane count.
func TestServiceMeasureKernelField(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		body string
		want glitchsim.Kernel
	}{
		{`{"circuit":"array8","cycles":40}`, glitchsim.KernelWideLockstep},
		{`{"circuit":"array8","cycles":40,"dsum":2,"dcarry":1}`, glitchsim.KernelWideEvent},
		{`{"circuit":"array8","cycles":40,"typical":true}`, glitchsim.KernelWideEvent},
		{`{"circuit":"array8","cycles":40,"lanes":1}`, glitchsim.KernelScalar},
		{`{"circuit":"dirdet8r","cycles":30,"seeds":[1,2],"typical":true}`, glitchsim.KernelWideEvent},
	} {
		resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.body, resp.StatusCode)
		}
		got := decodeBody[MeasureResponse](t, resp)
		if got.Kernel != string(tc.want) {
			t.Errorf("%s: kernel = %q, want %q", tc.body, got.Kernel, tc.want)
		}
	}
}

// TestServiceMeasureConcurrent: many concurrent /v1/measure requests
// against one shared Engine must all succeed and agree per circuit.
// This test runs under -race in CI.
func TestServiceMeasureConcurrent(t *testing.T) {
	ts := newTestServer(t)
	circuits := []string{"rca8", "wallace8", "array8", "dirdet8"}
	const perCircuit = 4

	results := make(map[string][]MeasureResponse)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(circuits)*perCircuit)
	for _, c := range circuits {
		for i := 0; i < perCircuit; i++ {
			wg.Add(1)
			go func(circuit string) {
				defer wg.Done()
				body := fmt.Sprintf(`{"circuit":%q,"cycles":60,"seed":3}`, circuit)
				resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", circuit, resp.StatusCode)
					return
				}
				var mr MeasureResponse
				if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				results[circuit] = append(results[circuit], mr)
				mu.Unlock()
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for circuit, rs := range results {
		if len(rs) != perCircuit {
			t.Fatalf("%s: %d results", circuit, len(rs))
		}
		for _, r := range rs[1:] {
			if r.Activity != rs[0].Activity {
				t.Errorf("%s: concurrent requests disagree: %+v vs %+v", circuit, r.Activity, rs[0].Activity)
			}
		}
	}
}

// TestServiceSeedsAndPower: the multi-seed merge plus power breakdown
// path works end to end and reports the merged cycle count.
func TestServiceSeedsAndPower(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
		strings.NewReader(`{"circuit":"dirdet8r","cycles":40,"seeds":[1,2,3],"power":true}`))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[MeasureResponse](t, resp)
	if got.Seeds != 3 {
		t.Errorf("seeds = %d, want 3", got.Seeds)
	}
	if got.Activity.Cycles != 120 {
		t.Errorf("merged cycles = %d, want 120", got.Activity.Cycles)
	}
	if got.Power == nil || got.Power.FFs != 48 || got.Power.TotalMW <= 0 {
		t.Errorf("power breakdown missing or implausible: %+v", got.Power)
	}
}

// TestServiceMeasureStream: stream=1 yields one NDJSON seed event per
// seed plus a final done event.
func TestServiceMeasureStream(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/measure?circuit=rca8&cycles=30&seeds=1,2,3,4&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	seeds := 0
	for _, k := range kinds {
		if k == "seed" {
			seeds++
		}
	}
	if seeds != 4 {
		t.Errorf("saw %d seed events, want 4 (kinds: %v)", seeds, kinds)
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != "done" {
		t.Errorf("stream did not end with done: %v", kinds)
	}
}

// TestServiceExperimentTable1: the experiment endpoint returns the four
// Table 1 rows.
func TestServiceExperimentTable1(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/experiments/table1", "application/json",
		strings.NewReader(`{"cycles":20}`))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[RowsResponse](t, resp)
	if len(got.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(got.Rows))
	}
	if got.Rows[0].Arch != "array" || got.Rows[2].Arch != "wallace" {
		t.Errorf("unexpected row order: %+v", got.Rows)
	}
}

// TestServiceFigure10: the figure10 endpoint answers the sequential
// before/after shape — the unretimed subject as "before" plus one sweep
// row per requested target.
func TestServiceFigure10(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/experiments/figure10", "application/json",
		strings.NewReader(`{"cycles":40,"targets":[72,24]}`))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[Fig10Response](t, resp)
	if got.Subject != "dirdet8r" {
		t.Errorf("subject %q, want dirdet8r", got.Subject)
	}
	b := got.Before
	if b.Circuit != 0 || b.TargetPeriod != 0 || b.Latency != 0 || b.FFs != 48 {
		t.Errorf("before row not the unretimed subject: %+v", b)
	}
	if b.TotalMW <= 0 || b.Period <= 0 {
		t.Errorf("before row missing measurement: %+v", b)
	}
	if len(got.Rows) != 2 {
		t.Fatalf("%d sweep rows, want 2", len(got.Rows))
	}
	for i, r := range got.Rows {
		if r.Circuit != i+1 {
			t.Errorf("sweep row %d numbered circuit %d", i, r.Circuit)
		}
	}
}

// TestServiceHealthz: /healthz reports ok and live cache statistics.
func TestServiceHealthz(t *testing.T) {
	ts := newTestServer(t)
	// Prime the cache with one measurement.
	if _, err := http.Post(ts.URL+"/v1/measure", "application/json",
		strings.NewReader(`{"circuit":"rca4","cycles":10}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
		Cache  struct {
			Size   int    `json:"size"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" {
		t.Errorf("status %q", hz.Status)
	}
	if hz.Cache.Size == 0 || hz.Cache.Misses == 0 {
		t.Errorf("cache stats not live: %+v", hz.Cache)
	}
}

// TestServiceErrors: bad requests are 4xx with a JSON error body.
func TestServiceErrors(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"unknown circuit", http.MethodPost, "/v1/measure", `{"circuit":"nope"}`, http.StatusNotFound},
		{"missing circuit", http.MethodPost, "/v1/measure", `{}`, http.StatusBadRequest},
		{"bad json", http.MethodPost, "/v1/measure", `{`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/v1/measure", `{"circuit":"rca4","bogus":1}`, http.StatusBadRequest},
		{"bad method", http.MethodDelete, "/v1/experiments/table1", ``, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: missing JSON error body (err=%v)", tc.name, err)
		}
		resp.Body.Close()
	}
}

// TestServiceExplicitZeroCycles: the wire's pointer convention reaches
// the Config sentinel — an explicit 0 measures nothing.
func TestServiceExplicitZeroCycles(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/measure", "application/json",
		strings.NewReader(`{"circuit":"rca4","cycles":0}`))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[MeasureResponse](t, resp)
	if got.Activity.Cycles != 0 || got.Activity.Transitions != 0 {
		t.Errorf("explicit zero cycles measured activity: %+v", got.Activity)
	}
}

// TestServiceLanesParam: the lanes knob reaches the measurement config —
// lanes=1 selects the historical single-stream numbers, the default (and
// any explicit wide lane count) the lane-decomposed ones, both matching
// the library API exactly.
func TestServiceLanesParam(t *testing.T) {
	ts := newTestServer(t)
	measure := func(body string) MeasureResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return decodeBody[MeasureResponse](t, resp)
	}
	scalar := measure(`{"circuit":"rca8","cycles":100,"seed":7,"lanes":1}`)
	wide := measure(`{"circuit":"rca8","cycles":100,"seed":7}`)

	want, err := glitchsim.NewEngine().Measure(context.Background(), glitchsim.MeasureRequest{
		Circuit: glitchsim.CircuitFromNetlist(glitchsim.NewRCA(8)),
		Config:  glitchsim.Config{Cycles: 100, Seed: 7, Lanes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Activity.Transitions != want.Transitions || scalar.Activity.Useful != want.Useful {
		t.Errorf("lanes=1 activity %+v, library %+v", scalar.Activity, want)
	}
	if wide.Activity.Cycles != 100 || scalar.Activity.Cycles != 100 {
		t.Errorf("cycles: wide %d scalar %d, want 100", wide.Activity.Cycles, scalar.Activity.Cycles)
	}
	if wide.Activity.Transitions == scalar.Activity.Transitions {
		t.Error("lane-decomposed and single-stream measurements coincide (lanes knob ignored?)")
	}
}

// TestServiceRejectsNegativeCounts: a negative cycles, warmup, lanes or
// checkpoint_every answers 400 bad_request naming the field, in the JSON
// body and the query string of /v1/measure and in a measure job, instead
// of being coerced to a default, a zero count or a single-stream run.
func TestServiceRejectsNegativeCounts(t *testing.T) {
	_, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{})
	for _, field := range []string{"cycles", "warmup", "lanes", "checkpoint_every"} {
		body := fmt.Sprintf(`{"circuit":"rca8",%q:-3}`, field)
		for _, tc := range []struct {
			form string
			do   func() (*http.Response, error)
		}{
			{"json", func() (*http.Response, error) {
				return http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
			}},
			{"query", func() (*http.Response, error) {
				return http.Get(ts.URL + "/v1/measure?circuit=rca8&" + field + "=-3")
			}},
			{"job", func() (*http.Response, error) {
				return http.Post(ts.URL+"/v1/jobs", "application/json",
					strings.NewReader(`{"kind":"measure","measure":`+body+`}`))
			}},
		} {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s=-3: status %d, want 400", tc.form, field, resp.StatusCode)
			}
			e := decodeBody[ErrorResponse](t, resp)
			if e.Code != CodeBadRequest || !strings.Contains(e.Error, field) {
				t.Errorf("%s %s=-3: code %q error %q, want %q naming the field", tc.form, field, e.Code, e.Error, CodeBadRequest)
			}
		}
	}
}

// TestServiceRejectsZeroCycleExperiments: a negative experiment cycle
// count answers 400 bad_request on every experiment endpoint, in the
// JSON body and the query string, and at job submission, instead of
// measuring zero cycles (a Table 3 worker then crashed the daemon on the
// power model). Power over an explicit zero cycles answers 400 too.
func TestServiceRejectsZeroCycleExperiments(t *testing.T) {
	_, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{})
	check := func(what string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", what, resp.StatusCode)
		}
		if e := decodeBody[ErrorResponse](t, resp); e.Code != CodeBadRequest || !strings.Contains(e.Error, "cycles") {
			t.Errorf("%s: code %q error %q, want %q naming cycles", what, e.Code, e.Error, CodeBadRequest)
		}
	}
	for _, name := range []string{"table3", "figure10", "table1", "table2"} {
		resp, err := http.Post(ts.URL+"/v1/experiments/"+name, "application/json", strings.NewReader(`{"cycles":-1}`))
		check(name+" json", resp, err)
		resp, err = http.Get(ts.URL + "/v1/experiments/" + name + "?cycles=-1")
		check(name+" query", resp, err)
		resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"`+name+`","experiment":{"cycles":-1}}`))
		check(name+" job", resp, err)
	}
	for _, body := range []string{
		`{"circuit":"rca4","cycles":0,"power":true}`,
		`{"circuit":"rca4","cycles":0,"power":true,"seeds":[1,2]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/measure", "application/json", strings.NewReader(body))
		check("measure "+body, resp, err)
		resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"measure","measure":`+body+`}`))
		check("job "+body, resp, err)
	}
}
