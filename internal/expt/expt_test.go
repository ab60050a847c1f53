package expt

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"regcoal/internal/engine"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ABL", "CH", "F3", "IRC", "P1", "P2", "T1", "T2", "T3", "T4", "T5", "T5G", "T6"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d is %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := Lookup("T1"); !ok {
		t.Fatal("Lookup(T1) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Note:   "note",
		Header: []string{"a", "bbbb"},
	}
	tab.Add("x", 12)
	tab.Add("yyyy", 3.14159)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "note", "bbbb", "yyyy", "3.14"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// Every experiment runs clean in quick mode and produces at least one
// non-empty table. This doubles as the integration test of the whole
// repository: each experiment exercises reductions, exact solvers,
// heuristics and the SSA pipeline together.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Seed: 20060408, Quick: true} // the paper's date
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q empty", tab.Title)
				}
				var buf bytes.Buffer
				tab.Render(&buf)
				if buf.Len() == 0 {
					t.Fatal("render produced nothing")
				}
			}
		})
	}
}

// The verification experiments must report full agreement — their tables
// encode "x/y" cells that should all be "y/y".
func TestEquivalenceExperimentsFullyAgree(t *testing.T) {
	cfg := Config{Seed: 7, Quick: true}
	for _, id := range []string{"T2", "T3", "T4", "T6"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tables, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range tables {
			for _, row := range tab.Rows {
				for ci, cell := range row {
					if ci == 0 || !strings.Contains(cell, "/") {
						continue
					}
					if tab.Header[ci] != "equivalent" && tab.Header[ci] != "agree" {
						continue
					}
					parts := strings.SplitN(cell, "/", 2)
					if parts[0] != parts[1] {
						t.Fatalf("%s: row %v cell %q disagrees", id, row, cell)
					}
				}
			}
		}
	}
}

func TestRunAndRender(t *testing.T) {
	e, _ := Lookup("F3")
	var buf bytes.Buffer
	if err := RunAndRender(&buf, e, Config{Seed: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "F3") {
		t.Fatal("render missing experiment id")
	}
}

func TestHelpers(t *testing.T) {
	if ratio(1, 0) != "n/a" || pct(1, 0) != "n/a" {
		t.Fatal("zero denominators must render n/a")
	}
	if ratio(1, 2) != "0.50" {
		t.Fatalf("ratio=%s", ratio(1, 2))
	}
	if pct(1, 4) != "25.0%" {
		t.Fatalf("pct=%s", pct(1, 4))
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register(Experiment{ID: "T1"})
}

// The CH experiment's per-strategy roll-up must agree with the engine's
// own aggregation over the same corpus and runners: summed coalesced
// weight per strategy is the number the table's second column renders.
// This pins the experiment's aggregation path to engine.Aggregates.
func TestCHAggregationConsistentWithEngine(t *testing.T) {
	cfg := Config{Seed: 20060408, Quick: true}
	e, ok := Lookup("CH")
	if !ok {
		t.Fatal("missing CH")
	}
	tables, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insts, err := chCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runners := append(engine.StrategyRunners(), engine.Columns("irc")[0], biasedRunner())
	recs, err := engine.Run(context.Background(), engineConfig(cfg), insts, runners, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantWeight := map[string]int64{}
	for _, a := range engine.Aggregates(recs) {
		wantWeight[a.Strategy] += a.CoalescedWeight
	}
	tab := tables[0]
	if len(tab.Rows) != len(runners) {
		t.Fatalf("CH table has %d rows, want one per runner (%d)", len(tab.Rows), len(runners))
	}
	for _, row := range tab.Rows {
		strategy, weight := row[0], row[1]
		if got := fmt.Sprint(wantWeight[strategy]); got != weight {
			t.Errorf("CH row %q reports weight %s, engine aggregates say %s", strategy, weight, got)
		}
	}
}

// T5G's "consistent" columns are soundness tallies (a brute-force yes
// must imply a Theorem 5 yes): every x/y cell must be full agreement,
// and the frozen gap witness must report the gap.
func TestT5GConsistencyAndGapWitness(t *testing.T) {
	e, ok := Lookup("T5G")
	if !ok {
		t.Fatal("missing T5G")
	}
	tables, err := e.Run(Config{Seed: 20060408, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := tables[0]
	ci := -1
	for i, h := range verdicts.Header {
		if h == "consistent" {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no consistent column in %v", verdicts.Header)
	}
	for _, row := range verdicts.Rows {
		parts := strings.SplitN(row[ci], "/", 2)
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("T5G row %v: consistency cell %q disagrees", row, row[ci])
		}
	}
	witness := tables[1]
	if len(witness.Rows) != 1 || witness.Rows[0][2] != "true" {
		t.Fatalf("gap witness table %v does not exhibit the gap", witness.Rows)
	}
}

// The CSV rendering path must carry exactly the text table's cells —
// same rows, same order — so downstream tooling can trust either form.
func TestRunAndRenderCSVMatchesTables(t *testing.T) {
	e, _ := Lookup("F3")
	cfg := Config{Seed: 1, Quick: true}
	tables, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RunAndRenderCSV(&buf, e, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, tab := range tables {
		for _, row := range tab.Rows {
			if !strings.Contains(out, row[0]) {
				t.Errorf("CSV output missing row head %q", row[0])
			}
		}
	}
}
