package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"regcoal/internal/graph"
	"regcoal/internal/service"
)

// A full heavy lane answers 429 with backpressure instead of queueing
// more expensive races. The test occupies the lane's only slot itself,
// so the lane is full by construction rather than for as long as some
// other request's solve happens to last.
func TestAdmissionHeavyLaneRejectsWhenFull(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 4, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(svc, WorkerConfig{
		Admission: AdmissionConfig{HeavySlots: 1, HeavyVertices: 1}, // everything is heavy
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	rng := rand.New(rand.NewSource(42))
	g := graph.RandomER(rng, 48, 0.4)
	graph.SprinkleAffinities(rng, g, 14, 100)
	body, err := json.Marshal(&service.Request{
		Graph:      specFromFile(&graph.File{G: g, K: 6}),
		DeadlineMS: 500,
		NoCache:    true, // force a real compute per request: no cache, no collapse
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/coalesce", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}

	if !w.adm.TryAcquire(LaneHeavy) {
		t.Fatal("heavy lane full before any request")
	}
	status, got := post()
	if status != http.StatusTooManyRequests {
		t.Fatalf("second heavy request: status %d (%s), want 429", status, got)
	}
	var e service.ErrorResponse
	if err := json.Unmarshal(got, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error != "heavy lane full, retry later" {
		t.Fatalf("429 body %q", e.Error)
	}
	if rejects := w.Metrics().LaneRejects.With("heavy").Load(); rejects != 1 {
		t.Fatalf("heavy lane rejects %d, want 1", rejects)
	}

	// With the lane free again the same request is admitted.
	w.adm.Release(LaneHeavy)
	status, got = post()
	if status != http.StatusOK {
		t.Fatalf("post-release request: status %d: %s", status, got)
	}
}
