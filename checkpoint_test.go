package glitchsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"glitchsim/internal/core"
	"glitchsim/internal/delay"
	"glitchsim/internal/jobs"
	"glitchsim/internal/logic"
	"glitchsim/internal/registry"
	"glitchsim/internal/sim"
	"glitchsim/internal/stimulus"
	"glitchsim/netlist"
)

// measureFor runs one measurement through a fresh engine and returns the
// detailed counter (partial on a checkpointed stop, alongside the error).
func measureFor(t *testing.T, n *netlist.Netlist, cfg Config) (*core.Counter, error) {
	t.Helper()
	return NewEngine().MeasureDetailed(context.Background(), MeasureRequest{Netlist: n, Config: cfg})
}

// sameCounters asserts two detailed counters agree net for net — the
// bit-identical contract of checkpointed/resumed measurement.
func sameCounters(t *testing.T, label string, got, want *core.Counter, n *netlist.Netlist) {
	t.Helper()
	if got.Cycles() != want.Cycles() {
		t.Fatalf("%s: cycles = %d, want %d", label, got.Cycles(), want.Cycles())
	}
	for net := 0; net < n.NumNets(); net++ {
		id := netlist.NetID(net)
		if g, w := got.Stats(id), want.Stats(id); g != w {
			t.Fatalf("%s: net %d stats = %+v, want %+v", label, net, g, w)
		}
	}
}

// TestResume is the interrupted-at-every-chunk-boundary equivalence
// suite: for each circuit × delay model, a measurement is stopped at
// every possible chunk boundary, serialized through JSON (the exact
// path a persisted job checkpoint takes), resumed, and the resumed
// counter compared net-for-net against an uninterrupted run.
func TestResume(t *testing.T) {
	circuits := []struct {
		name  string
		build func() *netlist.Netlist
	}{
		{"rca8", func() *netlist.Netlist { return NewRCA(8) }},
		{"wallace4", func() *netlist.Netlist { return NewWallaceMultiplier(4) }},
		{"dirdet4", func() *netlist.Netlist { return NewDirectionDetector(4, true) }},
	}
	models := []struct {
		name     string
		delay    delay.Model
		inertial bool
	}{
		{"unit", nil, false},                          // lockstep kernel
		{"fa-2-1", delay.FullAdderRatio(2, 1), false}, // wide-event kernel
		{"typical-inertial", delay.Typical(), true},   // wide-event, inertial
	}
	// Cycles=37 over 8 lanes gives uneven quotas [5×5, 4×3]: boundaries
	// 1..4 include the lane-retirement step, so resume is exercised both
	// before and after lanes go idle.
	const cycles, lanes = 37, 8
	for _, c := range circuits {
		for _, m := range models {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				n := c.build()
				base := Config{Cycles: cycles, Lanes: lanes, Seed: 5, Delay: m.delay, Inertial: m.inertial}
				want, err := measureFor(t, n, base)
				if err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}
				maxQ := (cycles + lanes - 1) / lanes
				for kill := 1; kill < maxQ; kill++ {
					var captured *MeasureCheckpoint
					cfg := base
					cfg.CheckpointEvery = 1
					cfg.CheckpointSink = func(cp *MeasureCheckpoint) error {
						if cp.Cycle == kill {
							captured = cp
							return ErrStopAtCheckpoint
						}
						return nil
					}
					partial, err := measureFor(t, n, cfg)
					if !errors.Is(err, ErrCheckpointed) {
						t.Fatalf("kill@%d: err = %v, want ErrCheckpointed", kill, err)
					}
					var stopped *CheckpointedError
					if !errors.As(err, &stopped) || stopped.Cycle != kill || stopped.Total != maxQ {
						t.Fatalf("kill@%d: stop = %+v, want cycle %d of %d", kill, stopped, kill, maxQ)
					}
					if captured == nil {
						t.Fatalf("kill@%d: sink never saw its checkpoint", kill)
					}
					if partial == nil || partial.Cycles() >= want.Cycles() {
						t.Fatalf("kill@%d: partial counter covers %v cycles, want a strict prefix", kill, partial)
					}
					// Round-trip the checkpoint through JSON — exactly what
					// the job store does to it — before resuming.
					data, err := json.Marshal(captured)
					if err != nil {
						t.Fatalf("kill@%d: marshal: %v", kill, err)
					}
					decoded := new(MeasureCheckpoint)
					if err := json.Unmarshal(data, decoded); err != nil {
						t.Fatalf("kill@%d: unmarshal: %v", kill, err)
					}
					resumeCfg := base
					resumeCfg.Resume = decoded
					got, err := measureFor(t, n, resumeCfg)
					if err != nil {
						t.Fatalf("kill@%d: resumed run: %v", kill, err)
					}
					sameCounters(t, fmt.Sprintf("kill@%d", kill), got, want, n)
				}
			})
		}
	}
}

// TestResumeChunkedEqualsPlain pins that a run taking checkpoints it is
// never stopped at (and one whose chunk size exceeds the run) is
// bit-identical to a run taking none: boundaries only observe.
func TestResumeChunkedEqualsPlain(t *testing.T) {
	n := NewRCA(8)
	base := Config{Cycles: 48, Lanes: 8, Seed: 9}
	want, err := measureFor(t, n, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 2, 100} {
		sinkCalls := 0
		cfg := base
		cfg.CheckpointEvery = every
		cfg.CheckpointSink = func(cp *MeasureCheckpoint) error {
			sinkCalls++
			if err := cp.Verify(); err != nil {
				return err
			}
			return nil
		}
		got, err := measureFor(t, n, cfg)
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		sameCounters(t, fmt.Sprintf("every=%d", every), got, want, n)
		if every >= 6 && sinkCalls != 0 {
			t.Fatalf("every=%d: %d sink calls on a run of 6 steps, want 0", every, sinkCalls)
		}
	}
}

// TestResumeRejectsMismatch: a checkpoint offered to the wrong
// measurement — different seed, circuit, delay model, or a tampered
// payload — is refused with ErrCheckpointMismatch.
func TestResumeRejectsMismatch(t *testing.T) {
	n := NewRCA(8)
	base := Config{Cycles: 32, Lanes: 8, Seed: 5}
	var captured *MeasureCheckpoint
	cfg := base
	cfg.CheckpointEvery = 2
	cfg.CheckpointSink = func(cp *MeasureCheckpoint) error {
		captured = cp
		return ErrStopAtCheckpoint
	}
	if _, err := measureFor(t, n, cfg); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("capture run: %v, want ErrCheckpointed", err)
	}

	reencode := func(mutate func(cp *MeasureCheckpoint)) *MeasureCheckpoint {
		cp := *captured
		mutate(&cp)
		// Re-seal so only the semantic mismatch (not the checksum) trips.
		if err := cp.seal(); err != nil {
			t.Fatal(err)
		}
		return &cp
	}
	cases := []struct {
		name string
		cfg  Config
		cp   *MeasureCheckpoint
	}{
		{"different seed", Config{Cycles: 32, Lanes: 8, Seed: 6}, captured},
		{"different cycles", Config{Cycles: 40, Lanes: 8, Seed: 5}, captured},
		{"different delay", Config{Cycles: 32, Lanes: 8, Seed: 5, Delay: delay.FullAdderRatio(2, 1)}, captured},
		{"different mode", Config{Cycles: 32, Lanes: 8, Seed: 5, Delay: delay.FullAdderRatio(2, 1), Inertial: true}, captured},
		{"tampered net state", base, func() *MeasureCheckpoint {
			cp := *captured
			cp.NetState = append([]byte(nil), cp.NetState...)
			cp.NetState[0] ^= 0xff
			return &cp // checksum no longer matches
		}()},
		{"forged cycle", base, reencode(func(cp *MeasureCheckpoint) { cp.Cycle = 1 << 20 })},
		{"missing counter", base, reencode(func(cp *MeasureCheckpoint) { cp.Counter = nil })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resumeCfg := tc.cfg
			resumeCfg.Resume = tc.cp
			if _, err := measureFor(t, n, resumeCfg); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("resume = %v, want ErrCheckpointMismatch", err)
			}
		})
	}

	t.Run("wrong circuit", func(t *testing.T) {
		resumeCfg := base
		resumeCfg.Resume = captured
		if _, err := measureFor(t, NewRCA(16), resumeCfg); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("resume onto rca16 = %v, want ErrCheckpointMismatch", err)
		}
	})
}

// TestCheckpointUnsettledRejected: a checkpoint whose net values no
// kernel settles at is refused with ErrCheckpointMismatch naming the
// net, although its checksum holds: X forced into lanes 1, 17 and 40 of
// every seventh net, and one flipped lane of one internal net. The
// second is testdata/checkpoint-unsettled-rca8.json, which a job must
// discard (internal/service's TestCheckpointUnsettledDiscarded).
func TestCheckpointUnsettledRejected(t *testing.T) {
	n, err := registry.Build("rca8")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Cycles: 64, Seed: 3, Lanes: 8}
	cfg := base
	cfg.CheckpointEvery = 2
	var captured *MeasureCheckpoint
	cfg.CheckpointSink = func(cp *MeasureCheckpoint) error {
		captured = cp
		return ErrStopAtCheckpoint
	}
	if _, err := measureFor(t, n, cfg); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("capture run: %v, want ErrCheckpointed", err)
	}
	forced := *captured
	vals, err := unpackNetState(forced.NetState, n.NumNets())
	if err != nil {
		t.Fatal(err)
	}
	const xLanes = 1<<1 | 1<<17 | 1<<40
	for i := 0; i < len(vals); i += 7 {
		vals[i].Zero &^= xLanes
		vals[i].One &^= xLanes
	}
	forced.NetState = packNetState(vals)
	if err := forced.seal(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile("testdata/checkpoint-unsettled-rca8.json")
	if err != nil {
		t.Fatal(err)
	}
	flipped := new(MeasureCheckpoint)
	if err := json.Unmarshal(data, flipped); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, net string // net: the net the error must name, if known
		cp        *MeasureCheckpoint
	}{{"x lanes on every seventh net", "", &forced}, {"one flipped lane", "n1", flipped}} {
		if err := tc.cp.Verify(); err != nil {
			t.Fatalf("%s: %v, want a checkpoint whose checksum holds", tc.name, err)
		}
		resume := base
		resume.Resume = tc.cp
		_, err := measureFor(t, n, resume)
		if !errors.Is(err, ErrCheckpointMismatch) || !strings.Contains(err.Error(), "settle") {
			t.Fatalf("%s: resume = %v, want ErrCheckpointMismatch on an unsettled net", tc.name, err)
		}
		if tc.net != "" && !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.net)) {
			t.Errorf("%s: %v does not name net %s", tc.name, err, tc.net)
		}
	}
}

// TestCheckpointUnsupportedSingleStream: checkpointing needs the
// lane-decomposed path; single-stream configurations refuse rather than
// silently running without checkpoints.
func TestCheckpointUnsupportedSingleStream(t *testing.T) {
	n := NewRCA(8)
	cfg := Config{Cycles: 32, Lanes: 1, Seed: 5, CheckpointEvery: 4,
		CheckpointSink: func(*MeasureCheckpoint) error { return nil }}
	if _, err := measureFor(t, n, cfg); !errors.Is(err, ErrCheckpointUnsupported) {
		t.Fatalf("Lanes=1 checkpointed measure = %v, want ErrCheckpointUnsupported", err)
	}
	cfg.CheckpointEvery = 0
	cfg.Resume = &MeasureCheckpoint{}
	if _, err := measureFor(t, n, cfg); !errors.Is(err, ErrCheckpointUnsupported) {
		t.Fatalf("Lanes=1 resumed measure = %v, want ErrCheckpointUnsupported", err)
	}
}

// TestResumeSinkErrorAborts: a sink failure that is not
// ErrStopAtCheckpoint aborts the measurement with the sink's error.
func TestResumeSinkErrorAborts(t *testing.T) {
	n := NewRCA(8)
	boom := errors.New("disk full")
	cfg := Config{Cycles: 32, Lanes: 8, Seed: 5, CheckpointEvery: 1,
		CheckpointSink: func(*MeasureCheckpoint) error { return boom }}
	if _, err := measureFor(t, n, cfg); !errors.Is(err, boom) {
		t.Fatalf("sink failure = %v, want wrapped %v", err, boom)
	}
}

// TestCheckpointBytesPerNet guards the packed format's size: a booth16
// checkpoint (64 lanes, 4096 cycles, taken halfway) encodes to at most
// 32 bytes of JSON per net. Version 1, which spelled every value out in
// JSON, took 84.2.
func TestCheckpointBytesPerNet(t *testing.T) {
	n, err := registry.Build("booth16")
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	cfg := Config{Cycles: 4096, Lanes: 64, Seed: 1, CheckpointEvery: 32,
		CheckpointSink: func(cp *MeasureCheckpoint) error {
			var err error
			if data, err = json.Marshal(cp); err != nil {
				return err
			}
			return ErrStopAtCheckpoint
		}}
	if _, err := measureFor(t, n, cfg); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("checkpointed run = %v, want ErrCheckpointed", err)
	}
	perNet := float64(len(data)) / float64(n.NumNets())
	t.Logf("booth16 checkpoint: %d bytes, %d nets, %.1f bytes per net", len(data), n.NumNets(), perNet)
	if perNet > 32 {
		t.Errorf("checkpoint takes %.1f bytes per net, want at most 32", perNet)
	}
}

// FuzzMeasureCheckpoint feeds arbitrary bytes to the decoder of
// checkpoints read from disk and resumes a small measurement (rca8, 8
// lanes) from whatever decodes: the outcome must be an error or a
// counter, never a panic. Each decodable input is resumed once more
// with its checksum re-stamped, so mutations also reach the identity,
// net-state and counter checks behind the checksum. The corpus starts
// from a version 2 checkpoint of that measurement, the version 1
// fixture (testdata/checkpoint-v1-rca8.json) and truncations of both.
func FuzzMeasureCheckpoint(f *testing.F) {
	n := NewRCA(8)
	e := NewEngine()
	base := Config{Cycles: 64, Lanes: 8, Seed: 3}
	run := func(cfg Config) (*core.Counter, error) {
		return e.MeasureDetailed(context.Background(), MeasureRequest{Circuit: CircuitFromNetlist(n), Config: cfg})
	}
	var v2 []byte
	cfg := base
	cfg.CheckpointEvery = 2
	cfg.CheckpointSink = func(cp *MeasureCheckpoint) error {
		if cp.Cycle < 4 {
			return nil
		}
		var err error
		if v2, err = json.Marshal(cp); err != nil {
			return err
		}
		return ErrStopAtCheckpoint
	}
	if _, err := run(cfg); !errors.Is(err, ErrCheckpointed) {
		f.Fatalf("capture run = %v, want ErrCheckpointed", err)
	}
	v1, err := os.ReadFile("testdata/checkpoint-v1-rca8.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v2, v1} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp := new(MeasureCheckpoint)
		if json.Unmarshal(data, cp) != nil {
			return
		}
		cfg := base
		cfg.Resume = cp
		_, _ = run(cfg)
		if cp.seal() == nil {
			_, _ = run(cfg)
		}
	})
}

// BenchmarkCheckpoint times one job checkpoint of booth16 (64 lanes,
// 32 of 64 measured steps done) step by step: capture (counter
// snapshot, kernel-state export, packing, checksum), encode (the job
// executor's json.Marshal) and put (one durable FileStore.Put of a
// record carrying the encoded checkpoint).
func BenchmarkCheckpoint(b *testing.B) {
	n, err := registry.Build("booth16")
	if err != nil {
		b.Fatal(err)
	}
	const lanes, done = 64, 32
	c := sim.Compile(n)
	cfg := Config{Cycles: 4096, Lanes: lanes, Seed: 1}.withDefaults(n)
	dt := sim.NewDelayTable(c, cfg.Delay)
	ws := sim.NewWideKernel(c, sim.Options{Delay: cfg.Delay, Delays: dt})
	src := stimulus.NewWideRandom(n.InputWidth(), laneSeeds(cfg.Seed, lanes))
	buf := make([]logic.W, n.InputWidth())
	counter := core.NewWideCounter(n)
	for i := 0; i < cfg.Warmup+done; i++ {
		if i == cfg.Warmup {
			ws.AttachWideMonitor(counter)
		}
		if err := ws.Step(src.NextWide(buf)); err != nil {
			b.Fatal(err)
		}
	}
	k := newCheckpointer(n.Fingerprint(), cfg, lanes, dt)
	cp, err := k.capture(ws, counter, done)
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		b.Fatal(err)
	}
	store, err := jobs.NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec := jobs.Record{ID: "0123456789abcdef", State: jobs.StateRunning, Kind: "measure",
		Checkpoint: data, CheckpointCycle: done, CreatedAt: time.Now().UTC()}
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := k.capture(ws, counter, done); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(data)), "bytes/checkpoint")
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(cp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("put", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := store.Put(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
