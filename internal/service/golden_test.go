package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
)

// Response-body golden: a fixed request script over /v1/coalesce,
// /v1/allocate and /v1/spill on a handful of quick-corpus instances —
// the default portfolio, every portfolio member requested alone, and an
// unknown member name per endpoint — with every status and body pinned
// in testdata/responses.golden. The deadline is generous, so every race
// completes and its tie-break makes the answer deterministic.

const responsesGolden = "testdata/responses.golden"

// goldenInstances span the members' applicability: exact in and out of
// its envelope, chordal and not, greedy-k-colorable inputs (where the
// spill-first members decline) and high-pressure ones, and a graph past
// the spill search's vertex envelope.
var goldenInstances = []string{
	"tiny-0000", "chordal-0003", "interval-pressure-0000", "ssa-pressure-0002", "permutation-0002",
}

// goldenMembers lists, per endpoint, the members requested alone.
var goldenMembers = map[string][]string{
	"coalesce": {"aggressive", "briggs", "george", "briggs+george", "ext-george", "brute",
		"brute-sets", "optimistic", "chordal-inc", "vegdahl", "exact"},
	"allocate": {"irc", "briggs+george", "optimistic", "none", "spill+briggs+george", "spill+optimistic"},
	"spill":    {"greedy", "incremental", "exact"},
}

func goldenSpec(f *graph.File) *GraphSpec {
	spec := &GraphSpec{Vertices: f.G.N(), K: f.K}
	for _, e := range f.G.Edges() {
		spec.Edges = append(spec.Edges, [2]int{int(e[0]), int(e[1])})
	}
	for _, a := range f.G.Affinities() {
		spec.Moves = append(spec.Moves, Move{X: int(a.X), Y: int(a.Y), Weight: a.Weight})
	}
	return spec
}

// responseTranscript runs the script against a fresh single node and
// renders one line per request: endpoint, instance, requested members,
// status, body.
func responseTranscript(t *testing.T) string {
	t.Helper()
	fams, err := corpus.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := corpus.BuildAll(fams, corpus.Params{Seed: 20060408, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*corpus.Instance, len(insts))
	for _, inst := range insts {
		byName[inst.Name] = inst
	}
	_, ts := newTestServer(t, Config{Workers: 2})

	var b strings.Builder
	send := func(endpoint, inst string, f *graph.File, members []string) {
		body, err := json.Marshal(&Request{Graph: goldenSpec(f), DeadlineMS: 30000, Strategies: members})
		if err != nil {
			t.Fatal(err)
		}
		resp, out := post(t, ts.URL+"/v1/"+endpoint, string(body))
		fmt.Fprintf(&b, "%s %s %v %d %s\n", endpoint, inst, members, resp.StatusCode, bytes.TrimSpace(out))
	}
	for _, name := range goldenInstances {
		inst, ok := byName[name]
		if !ok {
			t.Fatalf("quick corpus has no instance %s", name)
		}
		for _, endpoint := range []string{"coalesce", "allocate", "spill"} {
			send(endpoint, name, inst.File, nil)
			for _, m := range goldenMembers[endpoint] {
				send(endpoint, name, inst.File, []string{m})
			}
		}
	}
	for _, endpoint := range []string{"coalesce", "allocate", "spill"} {
		send(endpoint, goldenInstances[0], byName[goldenInstances[0]].File, []string{"no-such-member"})
	}
	return b.String()
}

func TestResponseBodiesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("races every portfolio member on several instances")
	}
	got := responseTranscript(t)
	data, err := os.ReadFile(filepath.FromSlash(responsesGolden))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(data), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\ngot  %s\nwant %s", i+1, responsesGolden, g, w)
		}
	}
}
