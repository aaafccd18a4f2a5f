package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
)

// One workload run, as the child process executes it: set-up, the timed
// window (or, with tracing, the traced pass), and the checks.

// runConfig selects one workload run.
type runConfig struct {
	Workload string
	Seed     uint64
	Window   time.Duration
	Trace    bool
	WorkDir  string
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// Attempted counts operations sent; Failed counts failed operations
	// plus oracle, golden and replay mismatches.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

// maxErrors bounds the failure messages a result keeps (Failed counts
// them all).
const maxErrors = 10

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

// setupRuns is how many times an end-to-end run sets the server up;
// setup_s is their median, and the last one serves the window.
const setupRuns = 7

// runWorkload executes one workload run in this process. Its scratch
// state lives in a fresh directory under cfg.WorkDir, removed on return;
// trace files go to cfg.WorkDir/trace/<workload>.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	wl, err := workloadNamed(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, wl.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.Trace {
		return runTraced(ctx, wl, cfg, dir)
	}
	return runEndToEnd(ctx, wl, cfg, dir)
}

func runEndToEnd(ctx context.Context, wl *workload, cfg runConfig, dir string) (*result, error) {
	var setups []float64
	var srv *benchServer
	var warm []opRecord
	for k := range setupRuns {
		s, d, w, err := setup(ctx, wl, cfg.Seed, filepath.Join(dir, fmt.Sprintf("setup%d", k)), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k == setupRuns-1 {
			srv, warm = s, w
		} else if err := s.stop(ctx); err != nil {
			return nil, err
		}
	}
	win := runWindow(ctx, wl, srv.url, cfg.Seed, cfg.Window, "d")
	if err := srv.stop(ctx); err != nil {
		return nil, err
	}

	res := &result{Workload: wl.Name, Attempted: len(win.records)}
	for i := range win.records {
		if err := win.records[i].err; err != nil {
			res.fail(fmt.Errorf("op %d: %w", win.records[i].index, err))
		}
	}
	checked, errs := checkOracle(ctx, wl, cfg.Seed, win.records, runtime.GOMAXPROCS(0))
	for _, err := range errs {
		res.fail(err)
	}
	res.note("oracle: %d of %d replies recomputed on a fresh engine", checked, win.successes())
	if cfg.Seed == 1 {
		for _, err := range checkGolden(wl.Name, warm) {
			res.fail(err)
		}
		res.note("golden: %d warm-up replies compared", len(warm))
	}
	if wl.Name == "paper-sweep" {
		res.note("%s", paperLine(warm[0].reply))
	}

	var lat []float64
	cycles := 0
	for i := range win.records {
		if rec := &win.records[i]; rec.err == nil {
			lat = append(lat, ms(rec.latency()))
			cycles += rec.cycles
		}
	}
	sort.Float64s(lat)
	ok, secs := float64(len(lat)), win.seconds()
	tail, beyond := quantile(lat, wl.Tail)
	res.add("setup_s", median(setups), "s")
	res.add("throughput_rps", ok/secs, "op/s")
	p50, _ := quantile(lat, 0.5)
	res.add("latency_p50_ms", p50, "ms")
	res.add("latency_tail_ms", tail, "ms")
	res.note("latency_tail_ms is p%g over %d samples, %d beyond it", 100*wl.Tail, len(lat), beyond)
	res.add("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	res.add("sim_cycles_per_s", float64(cycles)/secs, "cycles/s")
	res.add("cpu_ms_per_op", ms(win.cpu)/max(ok, 1), "ms")
	res.add("rss_peak_mb", win.rssMB, "MB")
	return res, nil
}

// Replay sizing for the traced pass: the first maxReplayOps operations
// of every workload, cut short after the time budget but never below
// minReplayOps (enough to reach both wide kernels on measure-heavy).
const (
	maxReplayOps = 200
	minReplayOps = 3
)

// runTraced is the traced pass: an untraced and a traced window of the
// workload (their throughput difference is the tracing overhead), then a
// replay of the first operations of every workload, live and through
// the layers, so every per-layer metric is measured on the workload that
// exercises its layer.
func runTraced(ctx context.Context, wl *workload, cfg runConfig, dir string) (*result, error) {
	tr := newTracer()
	rec := &handlerRecorder{t: tr}
	srv, _, _, err := setup(ctx, wl, cfg.Seed, filepath.Join(dir, "server"), func(h http.Handler) http.Handler {
		rec.next = h
		return rec
	})
	if err != nil {
		return nil, err
	}
	running := true
	defer func() {
		if running {
			_ = srv.stop(ctx) // an error path already failed the run
		}
	}()
	res := &result{Workload: wl.Name, Trace: true}
	var lw liveWindows
	lw.plain = runWindow(ctx, wl, srv.url, cfg.Seed, cfg.Window/2, "c")
	before := srv.engine.CacheStats()
	rec.on.Store(true)
	stopSampling := sampleLoad(srv.engine, 10*time.Millisecond)
	lw.traced = runWindow(ctx, wl, srv.url, cfg.Seed, cfg.Window/2, "d")
	lw.busy = stopSampling()
	after := srv.engine.CacheStats()
	lw.hits, lw.misses = after.Hits-before.Hits, after.Misses-before.Misses
	for _, w := range []*windowResult{lw.plain, lw.traced} {
		res.Attempted += len(w.records)
		for i := range w.records {
			if err := w.records[i].err; err != nil {
				res.fail(fmt.Errorf("op %d: %w", w.records[i].index, err))
			}
		}
	}

	store, err := jobs.NewFileStore(filepath.Join(dir, "replay-jobs"))
	if err != nil {
		return nil, err
	}
	rp := newReplayer(ctx, tr, store)
	budget := max(cfg.Window/8, 200*time.Millisecond)
	live := map[string]*reply{} // replayed op ID → its live reply
	for wi, w := range workloads {
		if err := replayWorkload(ctx, rp, w, srv.url, fmt.Sprintf("e%d", wi), cfg.Seed, budget, res, live); err != nil {
			return nil, err
		}
	}
	rec.on.Store(false)
	running = false
	if err := srv.stop(ctx); err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	layers := layerMetrics(res, wl, spans, rp, live, &lw)
	if err := writeTrace(filepath.Join(cfg.WorkDir, "trace", wl.Name), spans, layers); err != nil {
		return nil, err
	}
	res.note("trace: %d spans written to %s", len(spans), filepath.Join(cfg.WorkDir, "trace", wl.Name))
	return res, nil
}

// replayWorkload sends the first operations of w's window sequence to
// the live server one at a time and replays each through the layers,
// requiring identical replies.
func replayWorkload(ctx context.Context, rp *replayer, w *workload, base, ridPrefix string, seed uint64, budget time.Duration, res *result, live map[string]*reply) error {
	for i := 0; i < w.Shapes; i++ {
		o, err := w.Gen(seed, streamWarmup, i)
		if err != nil {
			return err
		}
		if err := rp.warm(o); err != nil {
			return err
		}
	}
	cl := newClient(base, ridPrefix)
	defer cl.close()
	f := rp.factsFor(w.Name)
	start := time.Now()
	for i := 0; i < maxReplayOps && (i < minReplayOps || time.Since(start) < budget); i++ {
		o, err := w.Gen(seed, streamWindow, i)
		if err != nil {
			return err
		}
		res.Attempted++
		got, err := cl.run(ctx, o, true)
		if err != nil {
			res.fail(fmt.Errorf("%s op %d: %w", w.Name, i, err))
			continue
		}
		rep, err := rp.replay(w.Name, o)
		if err != nil {
			res.fail(fmt.Errorf("%s op %d replay: %w", w.Name, i, err))
			continue
		}
		want, err1 := got.canonical(o.Kind)
		have, err2 := rep.canonical(o.Kind)
		if err1 != nil || err2 != nil || string(want) != string(have) {
			res.fail(fmt.Errorf("%s op %d: replay reconstructs %s, server replied %s", w.Name, i, have, want))
			continue
		}
		live[fmt.Sprintf("%s/%d", w.Name, i)] = got
		if j := got.Job; j != nil {
			f.add(&f.checkpoints, float64(got.Checkpoints))
			f.add(&f.queueWaitMS, ms(j.StartedAt.Sub(j.CreatedAt)))
			f.add(&f.runMS, ms(j.FinishedAt.Sub(j.StartedAt)))
		}
	}
	return nil
}

// sampleLoad samples the engine's simulation-slot occupancy (what
// /healthz reports as engine.active/capacity) every period until the
// returned stop function is called, which returns the mean busy share.
func sampleLoad(e *glitchsim.Engine, period time.Duration) func() float64 {
	sum, n := 0.0, 0
	stop := tick(period, func(time.Time) {
		active, capacity := e.Load()
		sum += float64(active) / float64(capacity)
		n++
	})
	return func() float64 {
		stop()
		return sum / float64(max(n, 1))
	}
}

// layerReport is layers.json: per workload, the replayed ops' time by
// layer (self time) and by span name, plus the per-layer metrics.
type layerReport struct {
	Coverage  float64                    `json:"coverage"`
	Workloads map[string]*workloadLayers `json:"workloads"`
	Metrics   []metric                   `json:"metrics"`
	Handler   map[string]spanSummary     `json:"handler"` // live handler spans by path
}

type workloadLayers struct {
	Ops    int                    `json:"ops"`
	OpMS   float64                `json:"op_ms"`
	Layers map[string]float64     `json:"layer_self_ms"`
	Spans  map[string]spanSummary `json:"spans"`
}

type spanSummary struct {
	Count   int     `json:"count"`
	P50US   float64 `json:"p50_us"`
	TotalMS float64 `json:"total_ms"`
}

// liveWindows is what the traced pass measured live on its workload:
// the untraced and traced windows, the compile-cache lookups and the
// mean engine-slot occupancy during the traced one.
type liveWindows struct {
	plain, traced *windowResult
	hits, misses  uint64
	busy          float64
}

// layerMetrics computes every per-layer metric into res and returns the
// layers.json report.
func layerMetrics(res *result, wl *workload, spans []span, rp *replayer, live map[string]*reply, lw *liveWindows) *layerReport {
	self := selfTimes(spans)
	rep := &layerReport{Workloads: map[string]*workloadLayers{}, Handler: map[string]spanSummary{}}
	durs := map[string]map[string][]float64{} // workload → span name → µs
	byRID := map[string]float64{}             // request ID → handler µs
	handler := map[string][]float64{}         // path → handler µs
	opDur := map[string]float64{}             // replayed op ID → µs
	var covered, total float64
	retime, sweepSelf := 0.0, 0.0
	for i := range spans {
		s := &spans[i]
		d := us(s.dur())
		if s.Name == handlerSpan {
			byRID[s.RequestID] = d
			handler[s.Op] = append(handler[s.Op], d)
			continue
		}
		w, _, _ := strings.Cut(s.Op, "/")
		if durs[w] == nil {
			durs[w] = map[string][]float64{}
			rep.Workloads[w] = &workloadLayers{Layers: map[string]float64{}, Spans: map[string]spanSummary{}}
		}
		durs[w][s.Name] = append(durs[w][s.Name], d)
		wlr := rep.Workloads[w]
		if s.Name == "op" {
			wlr.Ops++
			wlr.OpMS += d / 1e3
			opDur[s.Op] = d
			total += d
			covered += d - us(self[s.ID])
		} else if s.Name != "probe" {
			wlr.Layers[layerOf(s.Name)] += us(self[s.ID]) / 1e3
		}
		if w == "paper-sweep" && s.Name != "op" {
			sweepSelf += us(self[s.ID])
			if strings.HasPrefix(s.Name, "retime.") {
				retime += us(self[s.ID])
			}
		}
	}
	for w, names := range durs {
		for name, ds := range names {
			rep.Workloads[w].Spans[name] = summarizeSpans(ds)
		}
	}
	for path, ds := range handler {
		rep.Handler[path] = summarizeSpans(ds)
	}
	p50 := func(w, name string) float64 { return median(durs[w][name]) }
	facts := func(w string) *layerFacts { return rp.factsFor(w) }

	// Live, on this run's workload: handler time and the client's share
	// of each operation in the traced window.
	var handlerUS, overheadUS []float64
	for i := range lw.traced.records {
		r := &lw.traced.records[i]
		if r.err != nil || r.reply == nil {
			continue
		}
		sum := 0.0
		for _, rid := range r.reply.RequestIDs {
			handlerUS = append(handlerUS, byRID[rid])
			sum += byRID[rid]
		}
		overheadUS = append(overheadUS, us(r.latency())-sum)
	}

	// Replay against live handler time for this workload's replayed ops.
	var replayUS, liveUS []float64
	for id, got := range live {
		if w, _, _ := strings.Cut(id, "/"); w != wl.Name {
			continue
		}
		replayUS = append(replayUS, opDur[id])
		sum := 0.0
		for _, rid := range got.RequestIDs {
			sum += byRID[rid]
		}
		liveUS = append(liveUS, sum)
	}

	heavy := facts("measure-heavy")
	laneRate := func(kernel string) float64 {
		var events, secs float64
		for _, k := range heavy.kernels {
			if k.Kernel == kernel {
				events += float64(k.Events) * float64(k.Lanes)
				secs += k.Time.Seconds()
			}
		}
		return events / max(secs, 1e-9)
	}
	var perStep []float64
	for _, k := range heavy.kernels {
		perStep = append(perStep, float64(k.Events)/float64(k.Steps))
	}
	tputPlain, tputTraced := float64(lw.plain.successes())/lw.plain.seconds(), float64(lw.traced.successes())/lw.traced.seconds()
	upload := facts("upload-jobs")

	res.add("service.handler_p50_us", median(handlerUS), "us")
	res.add("service.decode_us", p50("measure-small", "service.decode"), "us")
	res.add("service.encode_us", p50("measure-small", "service.encode"), "us")
	res.add("net.client_overhead_us", median(overheadUS), "us")
	res.add("resolve.build_us", p50("measure-small", "resolve.build"), "us")
	res.add("resolve.fingerprint_us", p50("measure-small", "resolve.fingerprint"), "us")
	res.add("admission.estimate_us", p50("measure-small", "admission.estimate"), "us")
	res.add("admission.estimate_ratio", median(facts("measure-small").estRatio), "ratio")
	res.add("compile.miss_ms", p50("upload-jobs", "compile.miss")/1e3, "ms")
	res.add("compile.hit_us", p50("measure-small", "compile.hit"), "us")
	res.add("compile.hit_ratio", float64(lw.hits)/float64(max(lw.hits+lw.misses, 1)), "ratio")
	res.add("engine.slot_busy_frac", lw.busy, "ratio")
	res.add("delay.table_us", p50("measure-small", "delay.table"), "us")
	res.add("kernel.setup_us", p50("measure-heavy", "kernel.setup"), "us")
	res.add("kernel.warmup_ms", p50("measure-heavy", "kernel.warmup")/1e3, "ms")
	res.add("kernel.measured_ms", p50("measure-heavy", "kernel.measured")/1e3, "ms")
	res.add("kernel.wide_event.lane_events_per_s", laneRate(string(glitchsim.KernelWideEvent)), "1/s")
	res.add("kernel.wide_lockstep.lane_events_per_s", laneRate(string(glitchsim.KernelWideLockstep)), "1/s")
	res.add("kernel.word_events_per_step", median(perStep), "count")
	res.add("stimulus.next_wide_us", p50("measure-heavy", "stimulus.next_wide"), "us")
	res.add("counter.fold_us", p50("measure-small", "counter.fold"), "us")
	res.add("summarize.us", p50("measure-small", "summarize"), "us")
	res.add("power.breakdown_us", p50("paper-sweep", "power.breakdown"), "us")
	res.add("batch.parallel_efficiency", median(facts("paper-sweep").batchEff), "ratio")
	res.add("retime.for_period_ms", p50("paper-sweep", "retime.for_period")/1e3, "ms")
	res.add("retime.share", retime/max(sweepSelf, 1e-9), "ratio")
	res.add("upload.parse_ms", p50("upload-jobs", "upload.parse")/1e3, "ms")
	res.add("upload.lint_ms", p50("upload-jobs", "upload.lint")/1e3, "ms")
	res.add("upload.handler_ms", median(handler["/v1/circuits"])/1e3, "ms")
	res.add("jobs.queue_wait_ms", median(upload.queueWaitMS), "ms")
	res.add("jobs.run_ms", median(upload.runMS), "ms")
	res.add("jobs.checkpoints_per_job", median(upload.checkpoints), "count")
	res.add("jobs.checkpoint_capture_us", median(upload.captureUS), "us")
	res.add("jobs.checkpoint_bytes", median(upload.ckptBytes), "bytes")
	res.add("jobs.store_put_ms", median(upload.storePutMS), "ms")
	res.add("trace.coverage", covered/max(total, 1e-9), "ratio")
	res.add("trace.replay_vs_live", median(replayUS)/max(median(liveUS), 1e-9), "ratio")
	res.add("trace.overhead_pct", 100*(tputPlain-tputTraced)/max(tputPlain, 1e-9), "%")
	rep.Coverage = covered / max(total, 1e-9)
	rep.Metrics = res.Metrics
	return rep
}

func summarizeSpans(ds []float64) spanSummary {
	total := 0.0
	for _, d := range ds {
		total += d
	}
	return spanSummary{Count: len(ds), P50US: median(ds), TotalMS: total / 1e3}
}

// quantile returns the nearest-rank q-quantile of sorted and how many
// samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := min(max(int(math.Ceil(float64(len(sorted))*q))-1, 0), len(sorted)-1)
	return sorted[i], len(sorted) - 1 - i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
