package cluster_test

// Session failover: a delta-solve session is primary-sticky, but its
// create/delta op log is replicated to the secondary of its base hash's
// replica set. Killing the primary mid-session must therefore degrade
// the session to "rebuildable", not "gone": the next delta routes to the
// secondary, which replays the log and answers the exact bytes the
// uninterrupted primary would have. The reference for "exact bytes" is a
// single-process service replaying the same log and applying the same
// batches.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/corpus"
	"regcoal/internal/service"
	"regcoal/internal/session"
)

func TestSessionFailoverRebuildsFromReplicatedLog(t *testing.T) {
	if testing.Short() {
		t.Skip("failover matrix runs full edit-script sessions per case")
	}
	scfg := service.Config{Workers: 2, QueueCap: 64}
	cases := []struct {
		family string
		kill   int // batches applied on the primary before it dies
	}{
		{family: "chordal", kill: 3},
		{family: "chordal", kill: 6},
		{family: "ssa-pressure", kill: 1},
		{family: "ssa-pressure", kill: 5},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-kill%d", tc.family, tc.kill), func(t *testing.T) {
			// A readiness TTL far beyond the test's length keeps the
			// primary's cached "ready" fresh at the kill, so the router
			// must attempt the dead node and retry: the retry assertion
			// below observes that event instead of racing the default
			// 500 ms probe cache.
			c := startCluster(t, 3, cluster.InProcessOptions{Service: scfg,
				Router: cluster.RouterConfig{ReadyTTL: time.Minute}})

			fams, err := corpus.Select(tc.family)
			if err != nil {
				t.Fatal(err)
			}
			insts, err := corpus.BuildAll(fams, corpus.Params{Seed: 20060408, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			inst := insts[0]

			createBody, err := json.Marshal(service.DeltaRequest{Op: "create", Graph: specFromFileT(inst.File)})
			if err != nil {
				t.Fatal(err)
			}
			status, hdr, resp := post(t, c.RouterURL+"/v1/coalesce/delta", createBody)
			if status != http.StatusOK {
				t.Fatalf("create: status %d: %s", status, resp)
			}
			var created service.DeltaResponse
			if err := json.Unmarshal(resp, &created); err != nil {
				t.Fatal(err)
			}
			primary := hdr.Get("X-Regcoal-Shard")
			primaryIdx := -1
			var secondaryW *cluster.InProcessWorker
			replicas := c.Router.Ring().Replicas(created.BaseHash, cluster.DefaultReplicas)
			if len(replicas) != 2 || replicas[0] != primary {
				t.Fatalf("create landed on %s, replica set is %v", primary, replicas)
			}
			for i, w := range c.Workers {
				if w.URL == primary {
					primaryIdx = i
				}
				if w.URL == replicas[1] {
					secondaryW = w
				}
			}
			if primaryIdx < 0 || secondaryW == nil {
				t.Fatalf("could not resolve primary/secondary from %v", replicas)
			}

			// The uninterrupted reference: a single-process service seeded
			// with the same session (same id, via the replay path the
			// secondary itself uses) answering the same batches.
			refSvc, ref := startSingle(t, scfg)
			if err := refSvc.ReplaySession(created.SessionID, created.BaseHash, createBody, nil); err != nil {
				t.Fatal(err)
			}

			script := corpus.GenEditScript(inst.File, inst.File.K, corpus.ScriptSeed(inst.File), 16)
			batches := make([][]session.Delta, 0, 8)
			for len(script) > 0 {
				n := min(2, len(script))
				batches = append(batches, script[:n])
				script = script[n:]
			}
			if tc.kill >= len(batches) {
				t.Fatalf("kill point %d outside the %d-batch script", tc.kill, len(batches))
			}

			for i, batch := range batches {
				if i == tc.kill {
					if err := c.StopWorker(primaryIdx); err != nil {
						t.Fatal(err)
					}
				}
				v := int64(i)
				body, err := json.Marshal(service.DeltaRequest{
					SessionID: created.SessionID,
					BaseHash:  created.BaseHash,
					Version:   &v,
					Deltas:    batch,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantStatus, _, want := post(t, ref.URL+"/v1/coalesce/delta", body)
				if wantStatus != http.StatusOK {
					t.Fatalf("reference delta %d: status %d: %s", i, wantStatus, want)
				}
				gotStatus, ghdr, got := post(t, c.RouterURL+"/v1/coalesce/delta", body)
				if gotStatus != http.StatusOK {
					t.Fatalf("delta %d: status %d: %s", i, gotStatus, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("delta %d: cluster bytes differ from uninterrupted reference:\n%s\n%s", i, got, want)
				}
				shard := ghdr.Get("X-Regcoal-Shard")
				if i < tc.kill && shard != primary {
					t.Fatalf("delta %d landed on %s before the kill, want primary %s", i, shard, primary)
				}
				if i >= tc.kill && shard != secondaryW.URL {
					t.Fatalf("delta %d landed on %s after the kill, want secondary %s", i, shard, secondaryW.URL)
				}
			}

			if rebuilds := secondaryW.Worker.Metrics().Rebuilds.Load(); rebuilds != 1 {
				t.Fatalf("secondary rebuilt the session %d times, want exactly 1", rebuilds)
			}
			if r := c.Router.Metrics().Retries.Load(); r == 0 {
				t.Fatal("no router retries recorded across a primary death")
			}

			// Close must survive failover too, and land on the secondary.
			closeBody, err := json.Marshal(service.DeltaRequest{
				Op: "close", SessionID: created.SessionID, BaseHash: created.BaseHash})
			if err != nil {
				t.Fatal(err)
			}
			status, chdr, cresp := post(t, c.RouterURL+"/v1/coalesce/delta", closeBody)
			if status != http.StatusOK {
				t.Fatalf("close after failover: status %d: %s", status, cresp)
			}
			if shard := chdr.Get("X-Regcoal-Shard"); shard != secondaryW.URL {
				t.Fatalf("close landed on %s, want secondary %s", shard, secondaryW.URL)
			}
		})
	}
}

// Read-your-writes across the replica set: an entry computed anywhere is
// pushed to every replica owner, so a client re-asking any replica gets
// a local cache hit, and only non-replicas pay a peer-fill hop.
func TestReplicatedPushGivesReadYourWrites(t *testing.T) {
	c := startCluster(t, 3, cluster.InProcessOptions{
		Service: service.Config{Workers: 2, QueueCap: 64},
	})
	insts := quickInstances(t)
	inst := insts[0] // chordal: WL-discriminated, relabel-invariant hash
	body := requestBody(t, inst.File)
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	replicas := c.Router.Ring().Replicas(service.RoutingHash(&req, 0), cluster.DefaultReplicas)
	if len(replicas) != 2 {
		t.Fatalf("replica set %v, want 2 owners", replicas)
	}

	status, _, want := post(t, c.RouterURL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("routed solve: status %d: %s", status, want)
	}

	var secondary, outsider *cluster.InProcessWorker
	for _, w := range c.Workers {
		switch {
		case w.URL == replicas[1]:
			secondary = w
		case !slices.Contains(replicas, w.URL):
			outsider = w
		}
	}
	if secondary == nil || outsider == nil {
		t.Fatalf("could not split secondary/outsider from %v", replicas)
	}

	// The secondary received the push on compute: local hit, no peer hop.
	status, hdr, got := post(t, secondary.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("secondary solve: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("secondary bytes differ from routed bytes:\n%s\n%s", got, want)
	}
	if tier := hdr.Get("X-Regcoal-Tier"); tier != "local" {
		t.Fatalf("secondary tier %q, want local (pushed on compute)", tier)
	}
	if disp := hdr.Get("X-Regcoal-Cache"); disp != "hit" {
		t.Fatalf("secondary disposition %q, want hit", disp)
	}

	// A worker outside the replica set holds nothing and fills from an
	// owner instead of recomputing.
	status, hdr, got = post(t, outsider.URL+"/v1/coalesce", body)
	if status != http.StatusOK {
		t.Fatalf("outsider solve: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("outsider bytes differ from routed bytes:\n%s\n%s", got, want)
	}
	if tier := hdr.Get("X-Regcoal-Tier"); tier != "peer" {
		t.Fatalf("outsider tier %q, want peer", tier)
	}
}
