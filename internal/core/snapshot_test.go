package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"glitchsim/netlist"
)

// snapNetlist builds a small circuit with two internal nets to monitor.
func snapNetlist(t *testing.T) (*netlist.Netlist, netlist.NetID, netlist.NetID) {
	t.Helper()
	b := netlist.NewBuilder("snapshot-test")
	x := b.Input("x")
	y := b.Not(x)
	z := b.Not(y)
	b.Output("z", z)
	return b.MustBuild(), y, z
}

// feedWide drives a wide counter with a synthetic per-cycle transition
// pattern on one net, the wide image of feed: in each cycle the given
// lanes flip n times, alternating values starting from 0.
func feedWide(c *WideCounter, net netlist.NetID, lanes uint64, perCycle []int) {
	for _, n := range perCycle {
		for i := 0; i < n; i++ {
			flip(c, net, lanes, i%2 == 0)
		}
		c.OnCycleEnd()
	}
}

// TestCheckpointRoundTrip pins the serialization contract of counter
// checkpointing: a snapshot marshalled through JSON and restored into a
// fresh counter reproduces every statistic exactly, and a counter that
// keeps counting after the restore stays bit-identical to the original
// counting straight through.
func TestCheckpointRoundTrip(t *testing.T) {
	nl, y, z := snapNetlist(t)
	fp := nl.Fingerprint()
	orig := NewWideCounter(nl)
	feedWide(orig, y, 0b101, []int{3, 2, 0, 7})
	feedWide(orig, z, 1, []int{1, 4})

	snap, err := orig.Snapshot(fp)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded CounterSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored := NewWideCounter(nl)
	if err := restored.Restore(&decoded, fp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Cycles() != orig.Cycles() {
		t.Fatalf("restored cycles = %d, want %d", restored.Cycles(), orig.Cycles())
	}
	for net := 0; net < nl.NumNets(); net++ {
		id := netlist.NetID(net)
		if got, want := restored.Stats(id), orig.Stats(id); got != want {
			t.Fatalf("restored stats[%d] = %+v, want %+v", net, got, want)
		}
	}

	// Counting on after the restore must equal counting straight through.
	feedWide(orig, y, 0b11, []int{2, 5})
	feedWide(restored, y, 0b11, []int{2, 5})
	if got, want := restored.Counter().Totals(), orig.Counter().Totals(); got != want {
		t.Fatalf("post-restore totals = %+v, want %+v", got, want)
	}
	if restored.Cycles() != orig.Cycles() {
		t.Fatalf("post-restore cycles = %d, want %d", restored.Cycles(), orig.Cycles())
	}
}

// TestCheckpointRoundTripWide: under a lane mask, a snapshot restored
// into a fresh wide counter with the same mask folds identically.
func TestCheckpointRoundTripWide(t *testing.T) {
	nl, net := twoNetNetlist(t)
	fp := nl.Fingerprint()
	orig := NewWideCounter(nl)
	orig.SetLaneMask(0b0111)
	feedWide(orig, net, 0b1111, []int{2, 3, 4})

	snap, err := orig.Snapshot(fp)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded CounterSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored := NewWideCounter(nl)
	restored.SetLaneMask(0b0111)
	if err := restored.Restore(&decoded, fp); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	// Continue both and compare the folds.
	for _, c := range []*WideCounter{orig, restored} {
		feedWide(c, net, 0b0101, []int{1})
	}
	of, rf := orig.Counter(), restored.Counter()
	if of.Totals() != rf.Totals() || of.Cycles() != rf.Cycles() {
		t.Fatalf("restored wide fold = %+v (%d cycles), want %+v (%d cycles)",
			rf.Totals(), rf.Cycles(), of.Totals(), of.Cycles())
	}
}

// TestSnapshotRejectsCorruption: every way a snapshot can lie —
// version skew, wrong circuit, impossible statistics, out-of-range
// nets — must be rejected with ErrBadSnapshot and leave the counter
// untouched.
func TestSnapshotRejectsCorruption(t *testing.T) {
	nl, y, _ := snapNetlist(t)
	fp := nl.Fingerprint()
	base := func() *CounterSnapshot {
		c := NewWideCounter(nl)
		feedWide(c, y, 0b11, []int{3, 2})
		s, err := c.Snapshot(fp)
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		return s
	}
	cases := []struct {
		name    string
		corrupt func(s *CounterSnapshot)
	}{
		{"version skew", func(s *CounterSnapshot) { s.Version = SnapshotVersion + 1 }},
		{"wrong fingerprint", func(s *CounterSnapshot) { s.Fingerprint = "deadbeef" }},
		{"negative cycles", func(s *CounterSnapshot) { s.Cycles = -1 }},
		{"monitored out of range", func(s *CounterSnapshot) { s.Monitored = append(s.Monitored, nl.NumNets()) }},
		{"net out of range", func(s *CounterSnapshot) { s.Stats[0].Net = -3 }},
		{"sum rule broken", func(s *CounterSnapshot) { s.Stats[0].Transitions++ }},
		{"odd useless", func(s *CounterSnapshot) { s.Stats[0].Useless++; s.Stats[0].Useful-- }},
		{"glitch parity broken", func(s *CounterSnapshot) { s.Stats[0].Glitches++ }},
		{"rising over transitions", func(s *CounterSnapshot) { s.Stats[0].Rising = s.Stats[0].Transitions + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.corrupt(s)
			target := NewWideCounter(nl)
			feedWide(target, y, 1, []int{1})
			before, beforeCycles := target.Counter().Totals(), target.Cycles()
			err := target.Restore(s, fp)
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Restore(%s) = %v, want ErrBadSnapshot", tc.name, err)
			}
			if after := target.Counter().Totals(); after != before || target.Cycles() != beforeCycles {
				t.Fatalf("failed restore mutated the counter: %+v/%d, want %+v/%d",
					after, target.Cycles(), before, beforeCycles)
			}
		})
	}
}

// TestSnapshotRefusesMidCycle: a checkpoint only exists at cycle
// boundaries; partial per-cycle parity state cannot be serialized.
func TestSnapshotRefusesMidCycle(t *testing.T) {
	nl, y, _ := snapNetlist(t)
	fp := nl.Fingerprint()
	c := NewWideCounter(nl)
	feedWide(c, y, 1, []int{2})
	snap, err := c.Snapshot(fp)
	if err != nil {
		t.Fatalf("boundary Snapshot: %v", err)
	}
	flip(c, y, 1, true) // mid-cycle: no OnCycleEnd yet
	if _, err := c.Snapshot(fp); err == nil {
		t.Fatal("mid-cycle Snapshot succeeded, want refusal")
	}
	if err := c.Restore(snap, fp); err == nil {
		t.Fatal("mid-cycle Restore succeeded, want refusal")
	}
}

// TestSnapshotPackedForm: the packed form round-trips a snapshot
// exactly, every truncation of it (and a trailing byte) fails with
// ErrBadSnapshot because the decoder checks every count against the
// bytes left, the JSON object a version 1 snapshot was no longer
// decodes, and a snapshot the packed form cannot carry exactly is
// refused when encoding.
func TestSnapshotPackedForm(t *testing.T) {
	nl, y, z := snapNetlist(t)
	fp := nl.Fingerprint()
	c := NewWideCounter(nl)
	feedWide(c, y, 0b101, []int{3, 2, 0, 7})
	feedWide(c, z, 1, []int{1, 4})
	snap, err := c.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := snap.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back CounterSnapshot
	if err := back.UnmarshalBinary(packed); err != nil || !reflect.DeepEqual(&back, snap) {
		t.Fatalf("packed round trip = %+v, %v; want %+v", back, err, snap)
	}
	for n := range packed {
		if err := new(CounterSnapshot).UnmarshalBinary(packed[:n]); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("decoding %d of %d bytes = %v, want ErrBadSnapshot", n, len(packed), err)
		}
	}
	if err := new(CounterSnapshot).UnmarshalBinary(append(packed, 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("decoding a trailing byte = %v, want ErrBadSnapshot", err)
	}
	v1 := `{"version":1,"fingerprint":"` + snap.Fingerprint + `","cycles":6,"monitored":[1,2],"stats":[]}`
	if err := json.Unmarshal([]byte(v1), new(CounterSnapshot)); err == nil {
		t.Fatal("a version 1 snapshot object decoded")
	}

	cases := []struct {
		name    string
		corrupt func(s *CounterSnapshot)
	}{
		{"negative cycles", func(s *CounterSnapshot) { s.Cycles = -1 }},
		{"monitored out of order", func(s *CounterSnapshot) { s.Monitored = append(s.Monitored, 0) }},
		{"stats out of order", func(s *CounterSnapshot) { s.Stats = append(s.Stats, s.Stats[0]) }},
		{"useful off the parity rule", func(s *CounterSnapshot) { s.Stats[0].Useful++ }},
		{"glitches off the parity rule", func(s *CounterSnapshot) { s.Stats[0].Glitches++ }},
	}
	for _, tc := range cases {
		s, err := c.Snapshot(fp)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(s)
		if _, err := s.AppendBinary(nil); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: AppendBinary = %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}
