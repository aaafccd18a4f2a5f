package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// quick run checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestQuickRun runs all four workloads in-process with a 300 ms window,
// then the traced pass, and checks that the result line carries exactly
// the metrics BENCHMARK.json names, that each is printed with its unit,
// that nothing failed (including the oracle, the goldens and the replay)
// and that the replay's spans cover at least 90% of the replayed
// operations' time.
func TestQuickRun(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec []specMetric
		code []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var names []string
		for _, m := range c.spec {
			names = append(names, m.Name)
		}
		if !slices.Equal(names, c.code) {
			t.Errorf("BENCHMARK.json lists %v, the result line carries %v", names, c.code)
		}
	}
	dir := t.TempDir()

	lines := quickRun(t, "-workload", "all", "-seconds", "0.3", "-work-dir", dir)
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if _, ok := lines[w.Name+" "+m.Name+" "+m.Unit]; !ok {
				t.Errorf("%s: metric %s [%s] not printed", w.Name, m.Name, m.Unit)
			}
		}
		if v, ok := lines[w.Name+" error_rate ratio"]; !ok || v != 0 {
			t.Errorf("%s: error_rate %v (printed: %v), want 0", w.Name, v, ok)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "results.json")); err != nil {
		t.Error(err)
	}

	lines = quickRun(t, "-workload", "measure-small", "-seconds", "0.3", "-trace", "1", "-work-dir", dir)
	for _, m := range spec.PerLayer {
		if _, ok := lines["measure-small "+m.Name+" "+m.Unit]; !ok {
			t.Errorf("per-layer metric %s [%s] not printed", m.Name, m.Unit)
		}
	}
	if c := lines["measure-small trace.coverage ratio"]; c < 0.9 {
		t.Errorf("trace.coverage = %v, want >= 0.9", c)
	}
	for _, f := range []string{"trace.jsonl", "layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, "trace", "measure-small", f)); err != nil {
			t.Error(err)
		}
	}
}

// quickRun runs the benchmark in-process, requires a passing result
// line, and returns the printed metrics keyed "workload metric unit".
func quickRun(t *testing.T, args ...string) map[string]float64 {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr, runWorkload)
	out := strings.TrimSpace(stdout.String())
	if code != 0 {
		t.Fatalf("run %v: exit %d\n%s\n%s", args, code, out, stderr.String())
	}
	all := strings.Split(out, "\n")
	var summary struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(all[len(all)-1]), &summary); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !summary.Correct || summary.Failed != 0 || summary.Attempted == 0 {
		t.Fatalf("run %v: %+v\n%s", args, summary, out)
	}
	lines := map[string]float64{}
	for _, l := range all[:len(all)-1] {
		f := strings.Fields(l)
		if len(f) != 4 || strings.HasPrefix(l, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", l, err)
		}
		lines[f[0]+" "+f[1]+" "+f[3]] = v
	}
	return lines
}
