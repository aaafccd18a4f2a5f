package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestJobsFileStoreRoundTrip pins the on-disk format: one JSON document
// per job, atomic writes, lossless Put/Get/List/Delete.
func TestJobsFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{
		ID:          "deadbeef01234567",
		State:       StateSucceeded,
		Kind:        "measure",
		RequestID:   "req-9",
		Fingerprint: "fp-9",
		Request:     json.RawMessage(`{"circuit":"rca16"}`),
		Result:      json.RawMessage(`{"activity":{}}`),
		Attempts:    2,
		Timeout:     time.Minute,
		Progress:    Progress{Done: 3, Total: 3},
		Events:      []Event{{Kind: "state", State: StateQueued, Time: time.Now().UTC().Truncate(time.Second)}},
		CreatedAt:   time.Now().UTC().Truncate(time.Second),
		FinishedAt:  time.Now().UTC().Truncate(time.Second),
	}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, rec.ID+".json")); err != nil {
		t.Fatalf("record file missing: %v", err)
	}
	got, ok, err := st.Get(rec.ID)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	a, _ := json.Marshal(rec)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip mismatch:\nput: %s\ngot: %s", a, b)
	}
	recs, err := st.List()
	if err != nil || len(recs) != 1 {
		t.Fatalf("List = %d records, err %v; want 1", len(recs), err)
	}
	if err := st.Delete(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Get(rec.ID); ok {
		t.Fatal("record survived Delete")
	}
	if err := st.Delete(rec.ID); err != nil {
		t.Fatalf("Delete of a missing record errored: %v", err)
	}
}

// TestJobsFileStoreRejectsTraversal pins that IDs cannot escape the
// store directory.
func TestJobsFileStoreRejectsTraversal(t *testing.T) {
	st, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "..", "a/b", `a\b`, "x.json"} {
		if err := st.Put(Record{ID: id}); err == nil {
			t.Errorf("Put(%q) accepted an unsafe id", id)
		}
	}
}

// TestJobsFileStoreSkipsCorrupt pins recovery resilience: a damaged
// record file is skipped (and reported) without hiding the healthy
// ones.
func TestJobsFileStoreSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(Record{ID: "aaaaaaaaaaaaaaaa", State: StateQueued, Kind: "measure", CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bbbbbbbbbbbbbbbb.json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := st.List()
	if err == nil {
		t.Error("List over a corrupt record reported no error")
	}
	if len(recs) != 1 || recs[0].ID != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("List = %+v, want just the healthy record", recs)
	}
}

// TestRecoverStaleTempFiles: temp files left by a Put a crash
// interrupted (the rename never happened) are swept when the store
// reopens, and the previous complete version of the record still
// serves. This is the crash-mid-write half of the atomic-rename
// contract.
func TestRecoverStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{ID: "cccccccccccccccc", State: StateQueued, Kind: "measure", CreatedAt: time.Now().UTC()}
	if err := st.Put(rec); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-overwrite: a partially written temp file for
	// the same record, plus one for a record that never completed at all.
	for _, name := range []string{".cccccccccccccccc.tmp-123456", ".dddddddddddddddd.tmp-987654"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"id": "torn`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if bytes.Contains([]byte(e.Name()), []byte(".tmp-")) {
			t.Errorf("stale temp file %s survived reopen", e.Name())
		}
	}
	got, ok, err := st2.Get(rec.ID)
	if err != nil || !ok {
		t.Fatalf("Get after sweep: ok=%v err=%v", ok, err)
	}
	if got.ID != rec.ID || got.State != rec.State {
		t.Errorf("record after sweep = %+v, want %+v", got, rec)
	}
	recs, err := st2.List()
	if err != nil {
		t.Fatalf("List after sweep: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("List after sweep = %d records, want 1", len(recs))
	}
}

// TestRecoverTruncatedRecord: a record file truncated mid-JSON (damage
// outside the store's atomic-write control) is skipped by List with an
// error, reported missing by Get, and does not block recovery of the
// healthy records — and the manager side of recovery (NewManager over
// the store) still starts.
func TestRecoverTruncatedRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	healthy := Record{ID: "aaaaaaaaaaaaaaaa", State: StateSucceeded, Kind: "measure",
		Result: json.RawMessage(`{"ok":true}`), CreatedAt: time.Now().UTC()}
	if err := st.Put(healthy); err != nil {
		t.Fatal(err)
	}
	torn := Record{ID: "bbbbbbbbbbbbbbbb", State: StateQueued, Kind: "measure", CreatedAt: time.Now().UTC()}
	if err := st.Put(torn); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, torn.ID+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st2.Get(torn.ID); err == nil {
		t.Error("Get on a truncated record reported no error")
	}
	recs, err := st2.List()
	if err == nil {
		t.Error("List over a truncated record reported no error")
	}
	if len(recs) != 1 || recs[0].ID != healthy.ID {
		t.Fatalf("List = %+v, want just the healthy record", recs)
	}

	// Manager recovery over the damaged store: starts, serves the
	// healthy terminal record.
	mgr, err := NewManager(ExecutorFunc(func(context.Context, Record, Hooks) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}), Options{BaseContext: context.Background(), Store: st2})
	if err != nil {
		t.Fatalf("NewManager over damaged store: %v", err)
	}
	defer mgr.Drain(context.Background())
	if rec, err := mgr.Get(healthy.ID); err != nil || rec.State != StateSucceeded {
		t.Errorf("recovered record = %+v err=%v, want succeeded", rec, err)
	}
}

// TestDrainCheckpointAndRestartRecovery is the full durability
// scenario of the acceptance criteria: with jobs queued AND running, a
// drain whose grace period expires checkpoints the running job back to
// queued; a fresh manager over the same on-disk store still serves the
// completed result and re-runs both the queued and the checkpointed
// job.
func TestDrainCheckpointAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: one job completes, one wedges mid-run, one stays queued.
	// The executor dispatches on the payload: {"fast":true} succeeds
	// immediately, anything else wedges until its context is canceled.
	started := make(chan string, 2)
	release := make(chan struct{})
	defer close(release)
	exec := ExecutorFunc(func(ctx context.Context, rec Record, h Hooks) (json.RawMessage, error) {
		var p struct {
			Fast bool `json:"fast"`
		}
		if err := json.Unmarshal(rec.Request, &p); err == nil && p.Fast {
			return json.RawMessage(`{"ok":true}`), nil
		}
		started <- rec.ID
		select {
		case <-release:
			return json.RawMessage(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	m1, err := NewManager(exec, Options{BaseContext: context.Background(), Workers: 1, QueueDepth: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := m1.Submit(Submission{Kind: "measure", Request: json.RawMessage(`{"fast":true}`)})
	waitState(t, m1, done.ID, StateSucceeded)

	running, _ := m1.Submit(Submission{Kind: "measure", Request: json.RawMessage(`{"n":2}`)})
	<-started
	queued, _ := m1.Submit(Submission{Kind: "measure", Request: json.RawMessage(`{"n":3}`)})

	// Drain with a grace period the wedged job cannot meet.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := m1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cancel()

	for _, tc := range []struct {
		id   string
		want State
	}{{done.ID, StateSucceeded}, {running.ID, StateQueued}, {queued.ID, StateQueued}} {
		rec, ok, err := st.Get(tc.id)
		if err != nil || !ok {
			t.Fatalf("store.Get(%s): ok=%v err=%v", tc.id, ok, err)
		}
		if rec.State != tc.want {
			t.Fatalf("after drain, store has %s in state %q, want %q", tc.id, rec.State, tc.want)
		}
	}

	// Phase 2: a fresh manager over the same directory.
	m2, err := NewManager(okExec(), Options{BaseContext: context.Background(), Workers: 2, QueueDepth: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, m2)

	// The completed result survived the restart...
	got, err := m2.Get(done.ID)
	if err != nil {
		t.Fatalf("restarted Get(%s): %v", done.ID, err)
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, got.Result); err != nil {
		t.Fatalf("recovered result is not JSON: %v", err)
	}
	if got.State != StateSucceeded || compacted.String() != `{"ok":true}` {
		t.Fatalf("recovered completed job = %+v, want succeeded with its result", got)
	}
	// ...and the unfinished jobs re-ran to completion.
	waitState(t, m2, running.ID, StateSucceeded)
	waitState(t, m2, queued.ID, StateSucceeded)
}

// slowQueuedStore delays every Put of a queued record, as a slow disk
// might delay Submit's write while a worker already runs the job.
type slowQueuedStore struct {
	Store
	delay time.Duration
}

func (s slowQueuedStore) Put(rec Record) error {
	if rec.State == StateQueued {
		time.Sleep(s.delay)
	}
	return s.Store.Put(rec)
}

// TestSlowQueuedPutKeepsTerminalRecord pins that a job's store writes
// land in lifecycle order: a job that finishes before Submit's queued
// record reaches the store must stay stored as succeeded, or a restart
// would run it again and lose its result.
func TestSlowQueuedPutKeepsTerminalRecord(t *testing.T) {
	st := NewMemStore()
	m, err := NewManager(okExec(), Options{
		BaseContext: context.Background(), Workers: 1,
		Store: slowQueuedStore{Store: st, delay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.Submit(Submission{Kind: "measure"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, m, rec.ID, StateSucceeded)
	drainNow(t, m)
	got, ok, err := st.Get(rec.ID)
	if err != nil || !ok {
		t.Fatalf("store.Get(%s): ok=%v err=%v", rec.ID, ok, err)
	}
	if got.State != StateSucceeded || string(got.Result) != `{"ok":true}` {
		t.Fatalf("store has %s in state %q with result %s, want succeeded with its result", rec.ID, got.State, got.Result)
	}
}

// TestRecoverRunningAsQueued pins that a record persisted as "running"
// (a crash, not a graceful drain) is recovered as queued and re-run —
// and that the attempt count survives the restart: a crash must not
// refill the retry budget, or a job that crashes the worker could loop
// forever.
func TestRecoverRunningAsQueued(t *testing.T) {
	st := NewMemStore()
	if err := st.Put(Record{
		ID: "cccccccccccccccc", State: StateRunning, Kind: "measure",
		Attempts: 2, Progress: Progress{Done: 1, Total: 4},
		CreatedAt: time.Now(), StartedAt: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(okExec(), Options{BaseContext: context.Background(), Workers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, m)
	got := waitState(t, m, "cccccccccccccccc", StateSucceeded)
	if got.Attempts != 3 {
		t.Errorf("recovered job attempts = %d, want 3 (2 persisted + the re-run)", got.Attempts)
	}
	if got.ResumedFromCycle != 0 {
		t.Errorf("recovered job without a checkpoint reports resumed_from_cycle = %d, want 0", got.ResumedFromCycle)
	}
}

// TestRecoverOverflowingQueue pins that recovery admits every stored
// pending job even when there are more than the configured queue depth.
func TestRecoverOverflowingQueue(t *testing.T) {
	st := NewMemStore()
	base := time.Now()
	for i := 0; i < 5; i++ {
		id := string(rune('a'+i)) + "aaaaaaaaaaaaaaa"
		if err := st.Put(Record{ID: id, State: StateQueued, Kind: "measure", CreatedAt: base.Add(time.Duration(i))}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(okExec(), Options{BaseContext: context.Background(), Workers: 2, QueueDepth: 2, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, m)
	for i := 0; i < 5; i++ {
		waitState(t, m, string(rune('a'+i))+"aaaaaaaaaaaaaaa", StateSucceeded)
	}
}
