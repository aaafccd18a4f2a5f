package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"glitchsim"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the library path")

// TestGeneratorsDeterministic: the same seed gives byte-identical
// request bodies and Verilog, and any other seed or index changes them.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range workloads {
		for i := 0; i < 3; i++ {
			a, err := w.Gen(7, streamWindow, i)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Gen(7, streamWindow, i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Body, b.Body) || !bytes.Equal(a.Verilog, b.Verilog) {
				t.Errorf("%s op %d: same seed, different request", w.Name, i)
			}
			for _, other := range []struct {
				seed          uint64
				stream, index int
				what          string
			}{{8, streamWindow, i, "seed"}, {7, streamWarmup, i, "stream"}, {7, streamWindow, i + 1, "index"}} {
				c, err := w.Gen(other.seed, other.stream, other.index)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(a.Body, c.Body) {
					t.Errorf("%s op %d: changing the %s left the request body unchanged", w.Name, i, other.what)
				}
			}
		}
	}
}

// TestUploadCircuits: every generated circuit has a distinct
// fingerprint, is about 1000-2000 cells of lint-warning-free logic with
// reconvergent fanout, and its Verilog parses back to the same
// fingerprint (so the upload and the job reference the same circuit).
func TestUploadCircuits(t *testing.T) {
	w, err := workloadNamed("upload-jobs")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 8; i++ {
		o, err := w.Gen(1, streamWindow, i)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[o.Fingerprint]; dup {
			t.Fatalf("ops %d and %d share fingerprint %s", j, i, o.Fingerprint)
		}
		seen[o.Fingerprint] = i
		nl, err := verilog.Parse(bytes.NewReader(o.Verilog))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if fp := nl.Fingerprint(); fp != o.Fingerprint {
			t.Errorf("op %d: Verilog parses to fingerprint %s, generated %s", i, fp, o.Fingerprint)
		}
		if nl.NumCells() < 900 || nl.NumCells() > 2000 {
			t.Errorf("op %d: %d cells, want about 1000-2000", i, nl.NumCells())
		}
		reconverges := false
		for _, f := range nl.Lint() {
			if f.Severity == netlist.SeverityWarning {
				t.Errorf("op %d: lint warning %s", i, f)
			}
			reconverges = reconverges || f.Kind == netlist.KindReconvergence
		}
		if !reconverges {
			t.Errorf("op %d: no reconvergent fanout", i)
		}
	}
}

// TestGolden recomputes the -seed 1 warm-up replies through the library
// path and compares them with testdata/golden.json (-update rewrites it).
func TestGolden(t *testing.T) {
	ctx := context.Background()
	e := glitchsim.NewEngine()
	golden := map[string][]json.RawMessage{}
	for _, w := range workloads {
		for i := 0; i < w.Shapes; i++ {
			o, err := w.Gen(1, streamWarmup, i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := recompute(ctx, e, o)
			if err != nil {
				t.Fatal(err)
			}
			golden[w.Name] = append(golden[w.Name], got)
		}
	}
	path := filepath.Join("testdata", "golden.json")
	if *update {
		data, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, w := range workloads {
		var warm []opRecord
		for i, raw := range golden[w.Name] {
			o, err := w.Gen(1, streamWarmup, i)
			if err != nil {
				t.Fatal(err)
			}
			r := &reply{}
			if o.Kind == kindSweep {
				var parts [4]json.RawMessage
				if err := json.Unmarshal(raw, &parts); err != nil {
					t.Fatal(err)
				}
				for k, dst := range []any{&r.Table1, &r.Table2, &r.Table3, &r.Figure10} {
					if err := json.Unmarshal(parts[k], dst); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := json.Unmarshal(raw, &r.Measure); err != nil {
				t.Fatal(err)
			}
			warm = append(warm, opRecord{op: o, reply: r})
		}
		for _, err := range checkGolden(w.Name, warm) {
			t.Error(err)
		}
	}
}
