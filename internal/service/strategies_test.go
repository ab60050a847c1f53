package service

import (
	"slices"
	"strings"
	"testing"

	"regcoal/internal/coalesce"
	"regcoal/internal/engine"
	"regcoal/internal/graph"
	"regcoal/internal/regalloc"
	"regcoal/internal/session"
	"regcoal/internal/spill"
	"regcoal/internal/strategy"
)

// columnsOf maps each matrix column a table declares to its kind.
func columnsOf[R any](t *testing.T, kind string, table strategy.Table[R], into map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, e := range table {
		if e.Name == "" || e.Run == nil {
			t.Errorf("%s table: entry %+v lacks a name or a Run", kind, e)
		}
		if seen[e.Name] {
			t.Errorf("%s table: duplicate name %q", kind, e.Name)
		}
		seen[e.Name] = true
		if e.Column == "" {
			continue
		}
		if other, dup := into[e.Column]; dup {
			t.Errorf("matrix column %q declared by both the %s and the %s table", e.Column, other, kind)
		}
		into[e.Column] = kind
	}
}

// TestStrategyTablesConsistent checks the strategy tables against every
// name list that opts their entries into a consumer: names are unique
// per kind, the default portfolios and the session members resolve, and
// the standard matrix consists of exactly the declared columns plus the
// session-* pair.
func TestStrategyTablesConsistent(t *testing.T) {
	columns := map[string]string{}
	columnsOf(t, "coalesce", coalesce.Strategies(), columns)
	columnsOf(t, "allocate", regalloc.Strategies(), columns)
	columnsOf(t, "spill", spill.Strategies(), columns)

	for _, list := range []struct {
		what  string
		names []string
	}{{"DefaultPortfolio", DefaultPortfolio()}, {"session.Members", session.Members()}} {
		if err := unknownStrategy(KindCoalesce, list.names); err != nil {
			t.Errorf("%s: %v", list.what, err)
		}
	}
	// With no names, allocate and spill race their whole table.
	f := &graph.File{G: graph.New(1), K: 1}
	for _, tc := range []struct {
		kind       string
		got, table []string
	}{
		{"allocate", memberNames(racers(regalloc.Strategies(), f, nil)), regalloc.Strategies().Names()},
		{"spill", memberNames(racers(spill.Strategies(), f, nil)), spill.Strategies().Names()},
	} {
		if !slices.Equal(tc.got, tc.table) || len(tc.got) == 0 {
			t.Errorf("%s default race %v, want the table %v", tc.kind, tc.got, tc.table)
		}
	}

	matrix := engine.MatrixNames(engine.StandardMatrix())
	for _, name := range matrix {
		if columns[name] == "" && !strings.HasPrefix(name, "session-") {
			t.Errorf("matrix column %q maps to no strategy-table entry", name)
		}
	}
	for name, kind := range columns {
		if !slices.Contains(matrix, name) {
			t.Errorf("%s table declares column %q, but the standard matrix lacks it", kind, name)
		}
	}
}

func memberNames[T any](ms []racer[T]) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name
	}
	return out
}
