package netlist_test

import (
	"bytes"
	"testing"

	"glitchsim/internal/registry"
	"glitchsim/netlist"
)

// FuzzReadJSON: ReadJSON answers any input with a netlist or an error,
// never a panic, and a netlist it accepts round-trips through WriteJSON
// and ReadJSON to the same Fingerprint. The corpus is seeded with the
// small registry circuits as WriteJSON writes them and with a body whose
// empty names the builder would auto-name into a collision with "n0".
func FuzzReadJSON(f *testing.F) {
	for _, name := range registry.Names() {
		n, err := registry.Build(name)
		if err != nil {
			f.Fatal(err)
		}
		if n.NumCells() > 200 {
			continue
		}
		var buf bytes.Buffer
		if err := n.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"name":"","inputs":[""],"outputs":["","",""],"nets":["0000","0001","n0",""]}`))
	f.Fuzz(func(t *testing.T, src []byte) {
		n, err := netlist.ReadJSON(bytes.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := n.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted netlist: %v", err)
		}
		back, err := netlist.ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON of its own WriteJSON: %v\n%s", err, buf.Bytes())
		}
		if got, want := back.Fingerprint(), n.Fingerprint(); got != want {
			t.Fatalf("round trip changed the fingerprint: %s, want %s\n%s", got, want, buf.Bytes())
		}
	})
}
