package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"regcoal"
	"regcoal/internal/corpus"
	"regcoal/internal/exact"
	"regcoal/internal/graph"
)

func quickCorpus(t *testing.T, spec string) []*corpus.Instance {
	t.Helper()
	fams, err := corpus.Select(spec)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := corpus.BuildAll(fams, corpus.Params{Seed: 20060408, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

// TestMatrixMatchesFacade pins the engine's strategy runners to the
// facade's strategy list: same names, same order, so cmd/bench output is
// navigable with the regcoal.Strategy constants.
func TestMatrixMatchesFacade(t *testing.T) {
	names := MatrixNames(StrategyRunners())
	want := regcoal.Strategies()
	if len(names) != len(want) {
		t.Fatalf("%d strategy runners, facade has %d", len(names), len(want))
	}
	for i := range want {
		if names[i] != string(want[i]) {
			t.Fatalf("runner %d is %q, facade says %q", i, names[i], want[i])
		}
	}
	full := MatrixNames(StandardMatrix())
	wantTail := []string{"irc", "exact", "spill-greedy", "spill-inc", "spill-exact", "spill+briggs+george", "spill+optimistic", "session-inc", "session-fresh"}
	if len(full) != len(names)+len(wantTail) {
		t.Fatalf("standard matrix = %v, want strategies + %v", full, wantTail)
	}
	for i, w := range wantTail {
		if full[len(names)+i] != w {
			t.Fatalf("standard matrix tail = %v, want %v", full[len(names):], wantTail)
		}
	}
}

// TestDeterministicAcrossParallelism is the acceptance criterion: the
// full matrix over several families must produce byte-identical JSONL and
// aggregate CSV for 1 worker and 8 workers.
func TestDeterministicAcrossParallelism(t *testing.T) {
	insts := quickCorpus(t, "chordal,interval,permutation,er-sparse")
	runOnce := func(parallel int) (string, string) {
		var jsonl bytes.Buffer
		recs, err := Run(context.Background(), Config{Parallel: parallel},
			insts, StandardMatrix(), JSONLSink(&jsonl))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(insts)*len(StandardMatrix()) {
			t.Fatalf("got %d records, want %d", len(recs), len(insts)*len(StandardMatrix()))
		}
		var csvb bytes.Buffer
		if err := WriteAggregatesCSV(&csvb, Aggregates(recs)); err != nil {
			t.Fatal(err)
		}
		return jsonl.String(), csvb.String()
	}
	j1, c1 := runOnce(1)
	j8, c8 := runOnce(8)
	if j1 != j8 {
		t.Errorf("JSONL differs between -parallel 1 and -parallel 8")
	}
	if c1 != c8 {
		t.Errorf("aggregate CSV differs between -parallel 1 and -parallel 8:\n--- 1 ---\n%s--- 8 ---\n%s", c1, c8)
	}
	// Sanity: records are in Seq order and JSONL is valid.
	dec := json.NewDecoder(strings.NewReader(j1))
	for i := 0; dec.More(); i++ {
		var r Record
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.WallNS != 0 {
			t.Fatalf("record %d has wall time with timing disabled", i)
		}
	}
}

// slowInstance builds an instance the exact solver cannot finish quickly:
// a dense graph with enough affinities that 2^|A| branch and bound with an
// exact-colorability check per node takes far longer than the timeout.
func slowInstance(t *testing.T) *corpus.Instance {
	t.Helper()
	// exact.SearchMaxVertices-sized and half-dense: even with warm solver pools
	// (the pooled-path PR sped the per-node colorability checks up enough
	// that the old 40-vertex instance finished inside 50ms) this takes
	// tens of milliseconds, an order of magnitude over the 5ms timeout
	// below.
	const n = exact.SearchMaxVertices
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u+v)%2 == 0 {
				g.AddEdge(graph.V(u), graph.V(v))
			}
		}
	}
	for i := 0; i < exact.SearchMaxMoves; i++ {
		g.AddAffinity(graph.V(i), graph.V((i+1)%n), int64(i+1))
	}
	return &corpus.Instance{Family: "test", Index: 0, Name: "slow-0000", File: &graph.File{G: g, K: 3}}
}

// TestTimeoutCancelsExactSolver: a deliberately slow exact-solver run must
// be cut off by the per-run timeout, reported as a timeout record, without
// stalling the rest of the matrix.
//
// The slow side is made deterministic rather than raced against the wall
// clock: the exact column first blocks until its run context is cancelled
// and only then enters the real search, which must notice the cancellation
// and report it. The polynomial columns meanwhile get a timeout hundreds
// of times their running time, so a loaded machine cannot push them over.
func TestTimeoutCancelsExactSolver(t *testing.T) {
	insts := []*corpus.Instance{slowInstance(t)}
	matrix := StandardMatrix()
	for i := range matrix {
		if matrix[i].Name != "exact" {
			continue
		}
		search := matrix[i].Run
		matrix[i].Run = func(ctx context.Context, f *graph.File) (RunStats, error) {
			<-ctx.Done()
			return search(ctx, f)
		}
	}
	start := time.Now()
	recs, err := Run(context.Background(),
		Config{Parallel: 2, Timeout: 500 * time.Millisecond},
		insts, matrix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v; timeout did not bite", elapsed)
	}
	byStrategy := map[string]Record{}
	for _, r := range recs {
		byStrategy[r.Strategy] = r
	}
	ex, ok := byStrategy["exact"]
	if !ok {
		t.Fatal("no exact record")
	}
	if ex.Status != StatusTimeout {
		t.Fatalf("exact status = %s (%s), want timeout", ex.Status, ex.Error)
	}
	// The polynomial strategies on the same instance still completed.
	for _, name := range []string{"briggs", "aggressive", "irc"} {
		if byStrategy[name].Status != StatusOK {
			t.Fatalf("%s status = %s, want ok", name, byStrategy[name].Status)
		}
	}
}

// TestPanicIsolation: a panicking runner yields a panic record; the pool
// keeps serving the remaining runs instead of crashing.
func TestPanicIsolation(t *testing.T) {
	insts := quickCorpus(t, "permutation")
	bomb := Runner{
		Name: "bomb",
		Run: func(_ context.Context, f *graph.File) (RunStats, error) {
			if f.G.N() > 0 {
				panic("kaboom on " + f.G.Name(0))
			}
			return RunStats{}, nil
		},
	}
	runners := append([]Runner{bomb}, StrategyRunners()[:2]...)
	recs, err := Run(context.Background(), Config{Parallel: 4}, insts, runners, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(insts)*len(runners) {
		t.Fatalf("got %d records, want %d", len(recs), len(insts)*len(runners))
	}
	panics, oks := 0, 0
	for _, r := range recs {
		switch {
		case r.Strategy == "bomb":
			if r.Status != StatusPanic || !strings.Contains(r.Error, "kaboom") {
				t.Fatalf("bomb record = %+v", r)
			}
			panics++
		case r.Status == StatusOK:
			oks++
		}
	}
	if panics != len(insts) || oks != 2*len(insts) {
		t.Fatalf("panics=%d oks=%d, want %d and %d", panics, oks, len(insts), 2*len(insts))
	}
	aggs := Aggregates(recs)
	if aggs[0].Strategy != "bomb" || aggs[0].Panics != len(insts) || aggs[0].OK != 0 {
		t.Fatalf("bomb aggregate = %+v", aggs[0])
	}
}

// TestSkippedExact: instances beyond the exact envelope produce skip
// records, not hours of search.
func TestSkippedExact(t *testing.T) {
	g := graph.New(exact.SearchMaxVertices + 1)
	g.AddAffinity(0, 1, 1)
	inst := &corpus.Instance{Family: "test", Name: "big-0000", File: &graph.File{G: g, K: 2}}
	recs, err := Run(context.Background(), Config{Parallel: 1},
		[]*corpus.Instance{inst}, []Runner{ExactRunner()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != StatusSkipped {
		t.Fatalf("recs = %+v", recs)
	}
}

// TestCSVSink exercises the CSV record stream shape.
func TestCSVSink(t *testing.T) {
	insts := quickCorpus(t, "permutation")
	var buf bytes.Buffer
	if _, err := Run(context.Background(), Config{Parallel: 2},
		insts, StrategyRunners()[:1], CSVSink(&buf)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(insts) {
		t.Fatalf("%d CSV lines, want %d", len(lines), 1+len(insts))
	}
	if !strings.HasPrefix(lines[0], "seq,family,instance") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != len(strings.Split(lines[0], ","))-1 {
			t.Fatalf("ragged CSV row %q", line)
		}
	}
}

// TestOuterCancellation: canceling the run's context stops feeding work.
func TestOuterCancellation(t *testing.T) {
	insts := quickCorpus(t, "chordal,interval,er-dense")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs, err := Run(ctx, Config{Parallel: 2}, insts, StandardMatrix(), nil)
	if err == nil {
		t.Fatal("want context error")
	}
	if len(recs) == len(insts)*len(StandardMatrix()) {
		t.Fatal("canceled run completed everything")
	}
}

// The spill columns over the high-pressure families: greedy and
// incremental must agree record for record (confluence), exact must
// never spill more than greedy inside its envelope, and the
// spill-then-coalesce pipeline must report zero unfeasibility (every
// record GreedyAfter) where the pure coalescing strategies cannot.
func TestSpillMatrixOnPressureFamilies(t *testing.T) {
	insts := quickCorpus(t, "ssa-pressure,interval-pressure")
	runners := append(SpillRunners(), SpillAllocRunners()...)
	recs, err := Run(context.Background(), Config{Parallel: 4}, insts, runners, nil)
	if err != nil {
		t.Fatal(err)
	}
	byStrategy := map[string]map[string]Record{}
	for _, r := range recs {
		if byStrategy[r.Strategy] == nil {
			byStrategy[r.Strategy] = map[string]Record{}
		}
		byStrategy[r.Strategy][r.Instance] = r
	}
	for name, g := range byStrategy[string("spill-greedy")] {
		if g.Status != StatusOK || g.Spills == 0 {
			t.Fatalf("spill-greedy on %s: status %s spills %d (pressure families must spill)", name, g.Status, g.Spills)
		}
		inc := byStrategy["spill-inc"][name]
		if inc.Spills != g.Spills {
			t.Fatalf("%s: spill-inc spilled %d, spill-greedy %d", name, inc.Spills, g.Spills)
		}
		if ex := byStrategy["spill-exact"][name]; ex.Status == StatusOK && ex.Spills > g.Spills {
			t.Fatalf("%s: spill-exact spilled %d > greedy %d", name, ex.Spills, g.Spills)
		}
		for _, alloc := range []string{"spill+briggs+george", "spill+optimistic"} {
			a := byStrategy[alloc][name]
			if a.Status != StatusOK || !a.GreedyAfter {
				t.Fatalf("%s on %s: status %s, greedy_after %v", alloc, name, a.Status, a.GreedyAfter)
			}
		}
	}
}

// TestDeterministicAcrossPoolReuse is the pooled-state half of the
// byte-identity contract: two back-to-back matrix runs in one process
// share warm solver pools (IRC state, spill scratch, arenas), and the
// second run's record stream must be byte-identical to the first's. Any
// state leaking across pool reuse boundaries would move a metric here.
func TestDeterministicAcrossPoolReuse(t *testing.T) {
	insts := quickCorpus(t, "chordal,interval,ssa-pressure,er-dense")
	runOnce := func() string {
		var jsonl bytes.Buffer
		if _, err := Run(context.Background(), Config{Parallel: 4},
			insts, StandardMatrix(), JSONLSink(&jsonl)); err != nil {
			t.Fatal(err)
		}
		return jsonl.String()
	}
	first := runOnce()
	second := runOnce() // pools are warm now
	if first != second {
		t.Error("JSONL record stream differs between cold-pool and warm-pool runs")
	}
}
