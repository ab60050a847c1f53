package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// path4 is the path 0-1-2-3 with a move between its ends, k=2:
// greedy-2-colorable, but merging the move's ends closes a triangle.
func path4() *inst {
	return newInst(4, 2, [][2]int{{0, 1}, {1, 2}, {2, 3}}, []move{{0, 3, 5}, {0, 2, 1}}, nil)
}

// cycle4 is the 4-cycle, k=2: properly 2-colorable, not greedy-2-colorable.
func cycle4() *inst {
	return newInst(4, 2, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil, nil)
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goodCoalesce is a correct coalesce answer on path4: classes {0,2},
// {1}, {3}, coloring 0,1,0,1.
func goodCoalesce() map[string]any {
	return map[string]any{
		"vertices": 4, "edges": 3, "moves": 2, "k": 2,
		"strategy": "briggs", "coalesced_moves": 1, "coalesced_weight": 1, "remaining_weight": 5,
		"colorable": true, "classes": [][]int{{0, 2}, {1}, {3}}, "coloring": []int{0, 1, 0, 1},
	}
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	if _, err := checkSolve(kindCoalesce, path4(), mustJSON(t, goodCoalesce())); err != nil {
		t.Errorf("coalesce: %v", err)
	}
	alloc := map[string]any{
		"vertices": 4, "edges": 3, "moves": 2, "k": 2, "strategy": "irc",
		"coloring": []int{0, 1, 0, 1}, "coalesced_weight": 1, "remaining_weight": 5,
	}
	if _, err := checkSolve(kindAllocate, path4(), mustJSON(t, alloc)); err != nil {
		t.Errorf("allocate: %v", err)
	}
	spill := map[string]any{
		"vertices": 4, "edges": 4, "moves": 0, "k": 2, "strategy": "greedy",
		"spilled": []int{0}, "spills": 1, "spill_cost": 1, "coloring": []int{-1, 0, 1, 0},
	}
	if _, err := checkSolve(kindSpill, cycle4(), mustJSON(t, spill)); err != nil {
		t.Errorf("spill: %v", err)
	}
}

func TestGreedyColorable(t *testing.T) {
	// A triangle with a pendant vertex: removing the pendant leaves three
	// vertices of degree 2, so it is not greedy-2-colorable whichever
	// vertex the elimination meets first.
	for _, pendant := range []int{0, 3} {
		var edges [][2]int
		tri := []int{1, 2, 3}
		if pendant == 3 {
			tri = []int{0, 1, 2}
		}
		edges = append(edges, [2]int{tri[0], tri[1]}, [2]int{tri[1], tri[2]}, [2]int{tri[0], tri[2]}, [2]int{pendant, tri[0]})
		in := newInst(4, 2, edges, nil, nil)
		if greedyColorable(in.adj, nil, 2) {
			t.Errorf("triangle with pendant %d reported greedy-2-colorable", pendant)
		}
		if !greedyColorable(in.adj, nil, 3) {
			t.Errorf("triangle with pendant %d reported not greedy-3-colorable", pendant)
		}
	}
	if greedyColorable(cycle4().adj, nil, 2) || !greedyColorable(path4().adj, nil, 2) {
		t.Error("4-cycle or 4-path misjudged at k=2")
	}
	keep := []bool{true, true, true, false}
	if !greedyColorable(cycle4().adj, keep, 2) {
		t.Error("4-cycle less one vertex reported not greedy-2-colorable")
	}
}

// TestCheckerRejectsCorruptedAnswers feeds one hand-corrupted answer per
// rule; each must be rejected, for the stated reason.
func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	pinned := newInst(4, 2, [][2]int{{0, 1}, {1, 2}, {2, 3}}, []move{{0, 3, 5}, {0, 2, 1}}, map[int]int{1: 0})
	cases := []struct {
		name, kind string
		in         *inst
		edit       func(a map[string]any)
		want       string
	}{
		{"vertex missing from the classes", kindCoalesce, path4(),
			func(a map[string]any) { a["classes"] = [][]int{{0, 2}, {1}} }, "in no class"},
		{"vertex in two classes", kindCoalesce, path4(),
			func(a map[string]any) { a["classes"] = [][]int{{0, 2}, {1, 2}, {3}} }, "classes"},
		{"interfering vertices merged", kindCoalesce, path4(),
			func(a map[string]any) {
				a["classes"] = [][]int{{0, 1}, {2}, {3}}
				a["coloring"] = nil
				a["colorable"] = false
			}, "interfering"},
		{"coloring not proper", kindCoalesce, path4(),
			func(a map[string]any) {
				a["classes"] = [][]int{{0}, {1}, {2}, {3}}
				a["coalesced_moves"], a["coalesced_weight"], a["remaining_weight"] = 0, 0, 6
				a["coloring"] = []int{0, 0, 1, 0}
			}, "share register"},
		{"register outside k", kindCoalesce, path4(),
			func(a map[string]any) { a["coloring"] = []int{0, 1, 0, 2} }, "outside"},
		{"pin not kept", kindCoalesce, pinned,
			func(a map[string]any) {}, "pinned"},
		{"coloring not constant on a class", kindCoalesce, path4(),
			func(a map[string]any) {
				a["classes"] = [][]int{{0, 3}, {1}, {2}}
				a["coalesced_moves"], a["coalesced_weight"], a["remaining_weight"] = 1, 5, 1
				a["strategy"] = "aggressive"
			}, "holds registers"},
		{"colorable without a coloring", kindCoalesce, path4(),
			func(a map[string]any) { delete(a, "coloring") }, "no coloring"},
		{"coalesced weight misreported", kindCoalesce, path4(),
			func(a map[string]any) { a["coalesced_weight"] = 6 }, "classes give"},
		{"remaining weight misreported", kindCoalesce, path4(),
			func(a map[string]any) { a["remaining_weight"] = 4 }, "classes give"},
		{"conservative winner breaks greedy colorability", kindCoalesce, path4(),
			func(a map[string]any) {
				a["classes"] = [][]int{{0, 3}, {1}, {2}}
				a["coalesced_moves"], a["coalesced_weight"], a["remaining_weight"] = 1, 5, 1
				a["colorable"] = false
				delete(a, "coloring")
			}, "conservative winner"},
		{"instance misdescribed", kindCoalesce, path4(),
			func(a map[string]any) { a["edges"] = 2 }, "answer describes"},
		{"allocate spilled vertex holds a register", kindAllocate, path4(),
			func(a map[string]any) {
				a["spilled"], a["spills"] = []int{3}, 1
				a["coloring"] = []int{0, 1, 0, 1}
			}, "spilled vertex"},
		{"allocate weight not what the registers give", kindAllocate, path4(),
			func(a map[string]any) { a["coalesced_weight"], a["remaining_weight"] = 6, 0 }, "registers give"},
		{"spill count misreported", kindSpill, cycle4(),
			func(a map[string]any) { a["spills"] = 2 }, "reports 2 spills"},
		{"spill cost misreported", kindSpill, cycle4(),
			func(a map[string]any) { a["spill_cost"] = 3 }, "spill cost"},
		{"spill residue not greedy-colorable", kindSpill, cycle4(),
			func(a map[string]any) {
				a["spilled"], a["spills"], a["spill_cost"] = []int{}, 0, 0
				a["coloring"] = []int{0, 1, 0, 1}
			}, "residue"},
	}
	for _, c := range cases {
		a := goodCoalesce()
		switch c.kind {
		case kindAllocate:
			a = map[string]any{
				"vertices": 4, "edges": 3, "moves": 2, "k": 2, "strategy": "irc",
				"coloring": []int{0, 1, 0, 1}, "coalesced_weight": 1, "remaining_weight": 5,
			}
		case kindSpill:
			a = map[string]any{
				"vertices": 4, "edges": 4, "moves": 0, "k": 2, "strategy": "greedy",
				"spilled": []int{0}, "spills": 1, "spill_cost": 1, "coloring": []int{-1, 0, 1, 0},
			}
		}
		c.edit(a)
		_, err := checkSolve(c.kind, c.in, mustJSON(t, a))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected for %q, want a reason mentioning %q", c.name, err, c.want)
		}
	}
}

// TestCheckerRejectsCorruptedDeltaAnswers corrupts a correct session
// answer over path4 with vertex 1 removed (session ids 0, 2, 3 alive).
func TestCheckerRejectsCorruptedDeltaAnswers(t *testing.T) {
	ref := newInst(3, 2, [][2]int{{1, 2}}, []move{{0, 2, 5}, {0, 1, 1}}, nil)
	alive := []int{0, 2, 3}
	good := func() map[string]any {
		return map[string]any{
			"session_id": "s", "version": 1, "path": "incremental",
			"result": map[string]any{
				"k": 2, "vertices": 3, "next_vertex": 4, "colorable": true,
				"coalesced_moves": 1, "coalesced_weight": 5, "remaining_moves": 1, "remaining_weight": 1,
				"classes":  [][]int{{0, 3}, {2}},
				"coloring": []int{0, -1, 1, 0},
			},
		}
	}
	if _, err := checkDelta(ref, alive, 4, 1, mustJSON(t, good())); err != nil {
		t.Fatalf("correct delta answer rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(a map[string]any, r map[string]any)
		want string
	}{
		{"wrong version", func(a, r map[string]any) { a["version"] = 2 }, "version"},
		{"dead vertex in a class", func(a, r map[string]any) { r["classes"] = [][]int{{0, 3}, {2}, {1}} }, "not alive"},
		{"interfering vertices merged", func(a, r map[string]any) {
			r["classes"] = [][]int{{0}, {2, 3}}
			r["colorable"] = false
			delete(r, "coloring")
		}, "interfering"},
		{"dead vertex colored", func(a, r map[string]any) { r["coloring"] = []int{0, 1, 1, 0} }, "dead session id"},
		{"weights misreported", func(a, r map[string]any) { r["remaining_weight"] = 0 }, "classes give"},
		{"colorable without a coloring", func(a, r map[string]any) { delete(r, "coloring") }, "no coloring"},
		{"coloring not proper", func(a, r map[string]any) { r["coloring"] = []int{0, -1, 0, 0} }, "share register"},
	}
	for _, c := range cases {
		a := good()
		c.edit(a, a["result"].(map[string]any))
		_, err := checkDelta(ref, alive, 4, 1, mustJSON(t, a))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected for %q, want a reason mentioning %q", c.name, err, c.want)
		}
	}
}

// TestCheckerAcceptsServerAnswers sends real traffic of every kind to an
// in-process server and checks every answer: originals, byte-identical
// repeats, relabeled repeats, and a delta session's create, batches and
// close.
func TestCheckerAcceptsServerAnswers(t *testing.T) {
	n, err := startNode()
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	tgt := newTarget(n.url, 1)
	defer tgt.close()

	g := newGen(7)
	keys, err := g.hotSet(6)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*request
	for _, k := range keys {
		reqs = append(reqs, k.prime)
	}
	warm, err := g.warmStream(3*len(keys), keys, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := g.coldStream(54)
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(append(reqs, warm...), cold...)
	edits, plans, err := g.editStream(40, nil, editMix{writeShare: 1, sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{}
	var creates []*request
	for _, sp := range plans {
		creates = append(creates, sp.create)
	}
	if err := e.createSessions(tgt, creates); err != nil {
		t.Fatal(err)
	}
	reqs = append(append(reqs, creates...), edits...)

	outs := tgt.sequential(reqs[:len(reqs)-len(creates)-len(edits)], false)
	outs = append(outs, e.createsOut...)
	outs = append(outs, tgt.sequential(edits, false)...)
	rep := &report{}
	var log strings.Builder
	checkAll(rep, &log, &checked{reqs: reqs, outs: outs})
	if rep.failed != 0 {
		t.Fatalf("%d of %d answers rejected:\n%s", rep.failed, rep.attempted, log.String())
	}
	if rep.attempted != len(reqs) {
		t.Fatalf("checked %d answers, sent %d", rep.attempted, len(reqs))
	}
}

// TestStreamsAreReproducible is the input guard: the same seed draws
// byte-identical streams, another seed different ones.
func TestStreamsAreReproducible(t *testing.T) {
	for _, w := range workloads {
		a, err := drawStreams(w, 11, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := drawStreams(w, 11, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		c, err := drawStreams(w, 12, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 11 drew two different streams", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 11 and 12 drew the same stream", w.name)
		}
	}
}

// TestColdStreamHasNoCanonicalDuplicates checks that cold-mix never
// repeats an instance up to relabeling, so the cache cannot help it.
func TestColdStreamHasNoCanonicalDuplicates(t *testing.T) {
	g := newGen(3)
	reqs, err := g.coldStream(270)
	if err != nil {
		t.Fatal(err)
	}
	if dup, n := canonicalDupShare(reqs); dup > 0.01 || n != len(reqs) {
		t.Fatalf("canonical-duplicate share %.4f over %d requests", dup, n)
	}
}
