package service

import (
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"glitchsim"
	"glitchsim/internal/jobs"
)

// TestCheckpointV1Discarded: a job persisted with a version 1
// checkpoint does not resume from it. The fixture
// (testdata/checkpoint-v1-rca8.json) is the checkpoint the version 1
// code took at cycle 4 of this very request, which that code resumed
// from. Now the job emits resume-discarded, re-runs from cycle zero,
// reports resumed_from_cycle 0, and its result equals an uninterrupted
// run's byte for byte.
func TestCheckpointV1Discarded(t *testing.T) {
	fixture, err := os.ReadFile("../../testdata/checkpoint-v1-rca8.json")
	if err != nil {
		t.Fatal(err)
	}
	const request = `{"kind":"measure","measure":{"circuit":"rca8","cycles":64,"seed":3,"lanes":8,"checkpoint_every":2}}`
	store, err := jobs.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parked := jobs.Record{
		ID: "0123456789abcdef", State: jobs.StateQueued, Kind: "measure",
		Request: json.RawMessage(request), Checkpoint: fixture, CheckpointCycle: 4,
		CreatedAt: time.Now().UTC(),
	}
	if err := store.Put(parked); err != nil {
		t.Fatal(err)
	}
	s, ts := newJobServer(t, glitchsim.NewEngine(), jobs.Options{Workers: 1, Store: store})
	fresh := submitJob(t, ts, request)

	result := func(id string) []byte {
		t.Helper()
		if final := pollJob(t, ts, id); final.State != string(jobs.StateSucceeded) {
			t.Fatalf("job %s ended %q, error %q", id, final.State, final.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		return compactBody(t, resp)
	}
	got, want := result(parked.ID), result(fresh.ID)
	if string(got) != string(want) {
		t.Errorf("job resumed from a version 1 checkpoint returned %s, an uninterrupted run %s", got, want)
	}
	rec, err := s.Jobs().Get(parked.ID)
	if err != nil {
		t.Fatal(err)
	}
	discarded := false
	for _, ev := range rec.Events {
		if ev.Kind == "resume-discarded" {
			discarded = true
			t.Logf("resume-discarded: %s", ev.Error)
		}
	}
	if !discarded {
		var kinds []string
		for _, ev := range rec.Events {
			kinds = append(kinds, ev.Kind)
		}
		t.Errorf("no resume-discarded event; events: %s", strings.Join(kinds, ", "))
	}
	if rec.ResumedFromCycle != 0 {
		t.Errorf("resumed_from_cycle = %d after the checkpoint was discarded, want 0", rec.ResumedFromCycle)
	}
}
