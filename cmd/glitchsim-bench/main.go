// Command glitchsim-bench is glitchsim's end-to-end benchmark. For each
// workload it starts a fresh child process that serves the glitchsim
// HTTP API exactly as cmd/glitchsimd does (one shared Engine, the job
// subsystem with a file store, durable uploads, an admission ceiling),
// drives it over loopback HTTP with a closed loop of at most two
// keep-alive clients, checks every reply, and reports the end-to-end
// metrics. With -trace 1 it instead runs the traced pass and reports the
// per-layer metrics. See README.md for the metric dictionary.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/glitchsim-bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-work-dir DIR]
//
// Every metric prints as one "workload metric value unit" line; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The run also writes
// DIR/results.json (stamped with commit, Go version, GOMAXPROCS, CPU
// count and CPU model) and, with -trace 1, DIR/trace/<workload>/
// {trace.jsonl,layers.json}. The exit status is non-zero when any
// operation failed or any reply disagreed with the oracle.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd and perLayer name the metrics the final JSON line carries in
// each mode (BENCHMARK.json lists the same names). error_rate is printed
// but not among them: it is zero on every passing run, and failures
// already reach the JSON line as "failed".
var (
	endToEnd = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_tail_ms", "sim_cycles_per_s", "cpu_ms_per_op", "rss_peak_mb"}
	perLayer = []string{
		"service.handler_p50_us", "service.decode_us", "service.encode_us", "net.client_overhead_us",
		"resolve.build_us", "resolve.fingerprint_us", "admission.estimate_us", "admission.estimate_ratio",
		"compile.miss_ms", "compile.hit_us", "compile.hit_ratio", "engine.slot_busy_frac", "delay.table_us",
		"kernel.setup_us", "kernel.warmup_ms", "kernel.measured_ms", "kernel.wide_event.lane_events_per_s",
		"kernel.wide_lockstep.lane_events_per_s", "kernel.word_events_per_step", "stimulus.next_wide_us",
		"counter.fold_us", "summarize.us", "power.breakdown_us", "batch.parallel_efficiency",
		"retime.for_period_ms", "retime.share", "upload.parse_ms", "upload.lint_ms", "upload.handler_ms",
		"jobs.queue_wait_ms", "jobs.run_ms", "jobs.checkpoints_per_job", "jobs.checkpoint_capture_us",
		"jobs.checkpoint_bytes", "jobs.store_put_ms", "trace.coverage", "trace.replay_vs_live", "trace.overhead_pct",
	}
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr, spawnChild)
	stop()
	os.Exit(code)
}

// runner executes one workload run: in a child process (spawnChild) or,
// for tests, in this one (runWorkload).
type runner func(ctx context.Context, cfg runConfig) (*result, error)

func run(ctx context.Context, args []string, stdout, stderr io.Writer, runOne runner) int {
	fs := flag.NewFlagSet("glitchsim-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: measure-small, measure-heavy, paper-sweep, upload-jobs or all")
	seed := fs.Uint64("seed", 1, "seed every request body is generated from")
	seconds := fs.Float64("seconds", 25, "length of the measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "work"), "directory for server state, results.json and trace files")
	child := fs.Bool("child", false, "run one workload in this process and print its result as JSON (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "glitchsim-bench: -seconds must be positive, -trace 0 or 1, and no positional arguments")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, n := range names {
		if _, err := workloadNamed(n); err != nil {
			fmt.Fprintf(stderr, "glitchsim-bench: %v\n", err)
			return 2
		}
	}
	cfg := runConfig{Seed: *seed, Window: time.Duration(*seconds * float64(time.Second)), Trace: *trace == 1, WorkDir: *workDir}

	if *child {
		cfg.Workload = names[0]
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "glitchsim-bench: %s: %v\n", cfg.Workload, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	var results []*result
	for _, n := range names {
		c := cfg
		c.Workload = n
		res, err := runOne(ctx, c)
		if err != nil {
			fmt.Fprintf(stderr, "glitchsim-bench: %s: %v\n", n, err)
			return 1
		}
		printResult(stdout, res)
		results = append(results, res)
	}
	if err := writeResults(filepath.Join(*workDir, "results.json"), cfg, results); err != nil {
		fmt.Fprintf(stderr, "glitchsim-bench: %v\n", err)
		return 1
	}
	line, correct := summaryLine(results, cfg.Trace, len(names) > 1)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// spawnChild runs one workload in a fresh process: this binary with
// -child, so every workload starts from a cold heap and its own RSS.
func spawnChild(ctx context.Context, cfg runConfig) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 2*cfg.Window+150*time.Second)
	defer cancel()
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", cfg.Workload,
		"-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Window.Seconds(), 'g', -1, 64),
		"-trace", trace,
		"-work-dir", cfg.WorkDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	res := new(result)
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("child process result: %w", err)
	}
	return res, nil
}

// printResult prints a run's notes, failures and metric lines.
func printResult(w io.Writer, r *result) {
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s: %s\n", r.Workload, n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# %s: FAIL: %s\n", r.Workload, e)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine renders the final JSON line: the selected mode's metrics
// (keyed "workload/metric" when several workloads ran) and whether every
// run passed.
func summaryLine(results []*result, trace, qualify bool) (string, bool) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			if !slices.Contains(names, m.Name) {
				continue
			}
			key := m.Name
			if qualify {
				key = r.Workload + "/" + m.Name
			}
			out.Metrics[key] = jsonMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, max(out.Attempted, 1), out.Failed+1), false
	}
	return string(data), out.Correct
}

// writeResults writes results.json, stamped with what the numbers depend
// on: commit, Go version, GOMAXPROCS, CPU count and CPU model.
func writeResults(path string, cfg runConfig, results []*result) error {
	stamp := struct {
		Commit     string    `json:"commit"`
		GoVersion  string    `json:"go_version"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		NProc      int       `json:"nproc"`
		CPU        string    `json:"cpu_model"`
		Seed       uint64    `json:"seed"`
		Seconds    float64   `json:"seconds"`
		Trace      bool      `json:"trace"`
		Results    []*result `json:"results"`
	}{commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), cfg.Seed, cfg.Window.Seconds(), cfg.Trace, results}
	data, err := json.MarshalIndent(stamp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit returns the VCS revision the binary was built from, when the
// build recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
