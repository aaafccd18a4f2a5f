package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"glitchsim/internal/delay"
	"glitchsim/internal/registry"
	"glitchsim/netlist"
	"glitchsim/verilog"
)

func TestBuildCircuitAllNames(t *testing.T) {
	for _, name := range registry.Names() {
		n, err := buildCircuit(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: invalid netlist: %v", name, err)
		}
		if n.InputWidth() == 0 || n.OutputWidth() == 0 {
			t.Errorf("%s: degenerate interface", name)
		}
	}
}

func TestBuildCircuitUnknown(t *testing.T) {
	_, err := buildCircuit("nope")
	if err == nil || !strings.Contains(err.Error(), "available") {
		t.Fatalf("want descriptive error, got %v", err)
	}
}

func TestCircuitNamesSorted(t *testing.T) {
	names := strings.Split(circuitNames(), ", ")
	if len(names) != len(registry.Names()) {
		t.Fatal("name list incomplete")
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("names unsorted")
		}
	}
}

func TestDelayFlag(t *testing.T) {
	if delayFlag(1, 1, false).Name() != delay.Unit().Name() {
		t.Error("default should be unit")
	}
	if !strings.Contains(delayFlag(2, 1, false).Name(), "dsum=2") {
		t.Error("fa ratio not selected")
	}
	if delayFlag(1, 1, true).Name() != "typical" {
		t.Error("typical not selected")
	}
	if !strings.Contains(delayFlag(3, 3, false).Name(), "3") {
		t.Error("uniform not selected")
	}
}

// TestDelayFlagRange: -dsum and -dcarry accept delays in [0,
// MaxInt32] and reject the rest as usage errors, which the simulator
// would otherwise meet as a panic.
func TestDelayFlagRange(t *testing.T) {
	for _, tc := range []struct {
		arg string
		ok  bool
	}{{"-1", false}, {"3000000000", false}, {"x", false}, {"0", true}, {"70000", true}, {"2147483647", true}} {
		fs := flag.NewFlagSet("sim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		d := delayVar(fs, "dsum", "")
		err := fs.Parse([]string{"-dsum", tc.arg})
		if (err == nil) != tc.ok {
			t.Errorf("-dsum %s: err %v, want ok %v", tc.arg, err, tc.ok)
		}
		if tc.ok && strconv.Itoa(int(*d)) != tc.arg {
			t.Errorf("-dsum %s: parsed %d", tc.arg, *d)
		}
	}
}

// TestCountFlagRange: a count flag takes a non-negative int and
// rejects a negative or malformed value, so the command exits with a
// usage error; the same holds for the global -workers, -parallel and
// -lanes.
func TestCountFlagRange(t *testing.T) {
	t.Cleanup(func() { workers, lanes = 0, 0 })
	for _, tc := range []struct {
		arg string
		ok  bool
	}{{"-1", false}, {"-5", false}, {"x", false}, {"1.5", false}, {"99999999999999999999", false}, {"0", true}, {"64", true}, {"4320", true}} {
		fs := flag.NewFlagSet("table1", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c := countVar(fs, "cycles", 500, "")
		err := fs.Parse([]string{"-cycles", tc.arg})
		if (err == nil) != tc.ok {
			t.Errorf("-cycles %s: err %v, want ok %v", tc.arg, err, tc.ok)
		}
		if tc.ok && strconv.Itoa(*c) != tc.arg {
			t.Errorf("-cycles %s: parsed %d", tc.arg, *c)
		}
		for _, name := range []string{"workers", "parallel", "lanes"} {
			if err := flag.CommandLine.Lookup(name).Value.Set(tc.arg); (err == nil) != tc.ok {
				t.Errorf("-%s %s: err %v, want ok %v", name, tc.arg, err, tc.ok)
			}
		}
	}
}

func TestExperimentCommandsRunQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment commands in -short mode")
	}
	// Exercise each experiment entry point with tiny workloads; output
	// goes to stdout but correctness is the absence of errors.
	cases := map[string][]string{
		"worstcase": {"-n", "3"},
		"fig5":      {"-n", "4", "-cycles", "50", "-chart=false"},
		"table1":    {"-cycles", "20"},
		"table2":    {"-cycles", "20"},
		"dirdet":    {"-cycles", "50"},
		"adders":    {"-width", "8", "-cycles", "30"},
		"corr":      {"-cycles", "200"},
		"sim":       {"-circuit", "rca4", "-cycles", "30"},
		"retime":    {"-circuit", "rca8", "-stages", "1", "-cycles", "30"},
	}
	for name, args := range cases {
		if err := commands[name](args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHazardCircuit(t *testing.T) {
	n := buildHazard()
	if n.NumCells() != 2 || n.Name != "hazard" {
		t.Error("hazard circuit wrong")
	}
	if n.NetByName("a") == netlist.NoNet {
		t.Error("input missing")
	}
}

// TestCircuitSelectorFiles: the -verilog and -netlist flags load a
// circuit from disk and resolve to the same structure (fingerprint) as
// the registry build they were exported from.
func TestCircuitSelectorFiles(t *testing.T) {
	n, err := buildCircuit("rca4")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	vPath := filepath.Join(dir, "rca4.v")
	var vb strings.Builder
	if err := verilog.Write(&vb, n); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vPath, []byte(vb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	jPath := filepath.Join(dir, "rca4.json")
	var jb strings.Builder
	if err := n.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jPath, []byte(jb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for flagName, path := range map[string]string{"-verilog": vPath, "-netlist": jPath} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		sel := addCircuitFlags(fs, "rca16")
		if err := fs.Parse([]string{flagName, path}); err != nil {
			t.Fatal(err)
		}
		got, err := sel.build()
		if err != nil {
			t.Fatalf("%s: %v", flagName, err)
		}
		if got.Fingerprint() != n.Fingerprint() {
			t.Errorf("%s: fingerprint differs from registry build", flagName)
		}
	}

	// Both files set: a clear error instead of a silent pick.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sel := addCircuitFlags(fs, "rca16")
	if err := fs.Parse([]string{"-verilog", vPath, "-netlist", jPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.build(); err == nil {
		t.Error("conflicting -verilog/-netlist accepted")
	}

	// The sim subcommand end to end on a file circuit.
	if err := commands["sim"]([]string{"-verilog", vPath, "-cycles", "10"}); err != nil {
		t.Errorf("sim -verilog: %v", err)
	}
}
