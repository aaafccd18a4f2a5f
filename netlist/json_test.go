package netlist

import (
	"strings"
	"testing"
)

func buildSequentialSample(t *testing.T) *Netlist {
	t.Helper()
	b := NewBuilder("sample")
	x := b.InputBus("x", 2)
	s, co := b.FullAdder(x[0], x[1], b.Const(0))
	q := b.DFF(s)
	// Feedback: the FA (cell 1, after the const cell) reads q on its
	// carry-in instead of the constant.
	b.Rewire(1, 2, q)
	b.Output("s", s)
	b.Output("co", co)
	b.OutputBus("qq", []NetID{q})
	b.NameBus("internal", []NetID{s})
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestJSONRoundTripExact(t *testing.T) {
	n := buildSequentialSample(t)
	var first strings.Builder
	if err := n.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(first.String()))
	if err != nil {
		t.Fatalf("read: %v\n%s", err, first.String())
	}
	if back.NumCells() != n.NumCells() || back.NumNets() != n.NumNets() {
		t.Fatalf("structure changed: %d/%d -> %d/%d",
			n.NumCells(), n.NumNets(), back.NumCells(), back.NumNets())
	}
	// Net names preserved -> a second serialization is byte-identical.
	var second strings.Builder
	if err := back.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("round trip not stable:\n--- first ---\n%s--- second ---\n%s",
			first.String(), second.String())
	}
	// Buses survive.
	if len(back.Bus("qq")) != 1 || len(back.Bus("internal")) != 1 || len(back.Bus("x")) != 2 {
		t.Error("buses lost")
	}
	if back.NumDFFs() != 1 {
		t.Error("dff lost")
	}
}

func TestJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       `{]`,
		"unknown field": `{"name":"x","bogus":1}`,
		"unknown type":  `{"name":"x","inputs":["a"],"cells":[{"type":"frob","in":["a"],"out":["z"]}],"outputs":["z"]}`,
		"bad outputs":   `{"name":"x","inputs":["a"],"cells":[{"type":"not","in":["a"],"out":["z","w"]}],"outputs":["z"]}`,
		"bad inputs":    `{"name":"x","inputs":["a"],"cells":[{"type":"and","in":["a"],"out":["z"]}],"outputs":["z"]}`,
		"double driver": `{"name":"x","inputs":["a"],"cells":[{"type":"not","in":["a"],"out":["z"]},{"type":"buf","in":["a"],"out":["z"]}],"outputs":["z"]}`,
		"unknown out":   `{"name":"x","inputs":["a"],"cells":[],"outputs":["z"]}`,
		"unknown bus":   `{"name":"x","inputs":["a"],"cells":[],"outputs":["a"],"buses":{"b":["zz"]}}`,
		"dup input":     `{"name":"x","inputs":["a","a"],"cells":[],"outputs":["a"]}`,
		"dangling in":   `{"name":"x","inputs":["a"],"cells":[{"type":"not","in":["ghost"],"out":["z"]}],"outputs":["z"]}`,
		"empty input":   `{"name":"x","inputs":[""],"cells":[],"outputs":[""]}`,
		"empty net":     `{"name":"x","inputs":["a"],"cells":[],"outputs":["a"],"nets":["a",""]}`,
		"empty names":   `{"name":"","inputs":[""],"outputs":["","",""],"nets":["0000","0001","n0",""]}`,
		"empty out":     `{"name":"x","inputs":["a"],"cells":[{"type":"not","in":["a"],"out":[""]}],"outputs":["a"]}`,
	}
	for name, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestJSONMinimal(t *testing.T) {
	src := `{"name":"pass","inputs":["a"],"cells":[{"type":"buf","in":["a"],"out":["z"]}],"outputs":["z"]}`
	n, err := ReadJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "pass" || n.NumCells() != 1 {
		t.Error("minimal netlist wrong")
	}
	if n.NetByName("z") == NoNet {
		t.Error("output net name not restored")
	}
}

func TestRenameNet(t *testing.T) {
	b := NewBuilder("r")
	x := b.Input("x")
	y := b.Not(x)
	b.RenameNet(y, "inverted")
	b.Output("o", y)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.NetByName("inverted") != y || n.NetByName("n0") != NoNet {
		t.Error("rename did not update the index")
	}
}

func TestRenameNetPanics(t *testing.T) {
	for name, f := range map[string]func(b *Builder){
		"dup":   func(b *Builder) { b.RenameNet(b.Input("x"), "y"); _ = b.Input("y") },
		"empty": func(b *Builder) { b.RenameNet(b.Input("x"), "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			b := NewBuilder("p")
			y := b.Input("y")
			_ = y
			f(b)
			b.RenameNet(b.n.PIs[len(b.n.PIs)-1], "y")
		}()
	}
}
