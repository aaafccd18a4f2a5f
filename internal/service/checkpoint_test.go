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

// TestCheckpointUnsettledDiscarded: a job persisted with a checkpoint
// whose net values no kernel settles at does not resume from it. The
// fixture (testdata/checkpoint-unsettled-rca8.json) is the checkpoint
// taken at cycle 4 of this very request, with lane 3 of net n1 (the
// first full adder's sum) flipped and the checksum resealed. The job
// emits resume-discarded naming the net, re-runs from cycle zero, and
// its result equals an uninterrupted run's byte for byte.
func TestCheckpointUnsettledDiscarded(t *testing.T) {
	ev := resumeParkedJob(t, "../../testdata/checkpoint-unsettled-rca8.json")
	if !strings.Contains(ev.Error, `net "n1"`) {
		t.Errorf("resume-discarded names %q, want the unsettled net n1", ev.Error)
	}
}

// TestCheckpointV1Discarded: a job persisted with a version 1
// checkpoint does not resume from it. The fixture
// (testdata/checkpoint-v1-rca8.json) is the checkpoint the version 1
// code took at cycle 4 of this very request, which that code resumed
// from. Now the job emits resume-discarded, re-runs from cycle zero,
// reports resumed_from_cycle 0, and its result equals an uninterrupted
// run's byte for byte.
func TestCheckpointV1Discarded(t *testing.T) {
	resumeParkedJob(t, "../../testdata/checkpoint-v1-rca8.json")
}

// resumeParkedJob parks an rca8 measure job at cycle 4 with the
// checkpoint in fixture, which the job must discard, and runs it beside
// a fresh job of the same request. It fails unless the parked job
// emits resume-discarded, reports resumed_from_cycle 0 and returns the
// fresh job's result byte for byte, and returns the resume-discarded
// event.
func resumeParkedJob(t *testing.T, fixture string) jobs.Event {
	t.Helper()
	checkpoint, err := os.ReadFile(fixture)
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
		Request: json.RawMessage(request), Checkpoint: checkpoint, CheckpointCycle: 4,
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
		t.Errorf("job resumed from %s returned %s, an uninterrupted run %s", fixture, got, want)
	}
	rec, err := s.Jobs().Get(parked.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ResumedFromCycle != 0 {
		t.Errorf("resumed_from_cycle = %d after the checkpoint was discarded, want 0", rec.ResumedFromCycle)
	}
	var kinds []string
	for _, ev := range rec.Events {
		if ev.Kind == "resume-discarded" {
			t.Logf("resume-discarded: %s", ev.Error)
			return ev
		}
		kinds = append(kinds, ev.Kind)
	}
	t.Fatalf("no resume-discarded event; events: %s", strings.Join(kinds, ", "))
	return jobs.Event{}
}
