package verilog

import (
	"bytes"
	"runtime"
	"testing"

	"glitchsim/internal/registry"
	"glitchsim/netlist"
)

// TestParseRetainsNoSource: a parsed netlist must not keep its Verilog
// source alive. The parser's identifiers are substrings of whole copies
// of the source, so a netlist built from them pins about twice the
// source's size. With every name cloned where it enters the Builder,
// parsed netlists retain no more heap than the same netlists read from
// the JSON form (1.37–1.44× before the fix, about 0.97× after it).
func TestParseRetainsNoSource(t *testing.T) {
	const copies = 16
	var vsrc, jsrc [][]byte
	for _, name := range []string{"array16", "booth16", "wallace16"} {
		n, err := registry.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		var v, j bytes.Buffer
		if err := Write(&v, n); err != nil {
			t.Fatal(err)
		}
		if err := n.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		vsrc, jsrc = append(vsrc, v.Bytes()), append(jsrc, j.Bytes())
	}
	// retained reports the live heap that copies of every source, read
	// by read, hold after a full collection.
	retained := func(srcs [][]byte, read func([]byte) (*netlist.Netlist, error)) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept := make([]*netlist.Netlist, 0, copies*len(srcs))
		for range copies {
			for _, src := range srcs {
				n, err := read(src)
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, n)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	parsed := retained(vsrc, func(src []byte) (*netlist.Netlist, error) { return Parse(bytes.NewReader(src)) })
	read := retained(jsrc, func(src []byte) (*netlist.Netlist, error) { return netlist.ReadJSON(bytes.NewReader(src)) })
	ratio := float64(parsed) / float64(read)
	t.Logf("retained heap: parsed %d B, read from JSON %d B (%.2f×)", parsed, read, ratio)
	if ratio > 1.1 {
		t.Fatalf("parsed netlists retain %.2f× the heap of the same netlists read from JSON, want at most 1.1×", ratio)
	}
}
