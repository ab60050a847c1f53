package strategy

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"regcoal/internal/graph"
)

func TestDeclineReadsAsReasonAndMatchesErrInapplicable(t *testing.T) {
	err := Decline("outside envelope (%d > %d)", 9, 8)
	if !errors.Is(err, ErrInapplicable) {
		t.Fatal("a decline does not match ErrInapplicable")
	}
	if got := err.Error(); got != "outside envelope (9 > 8)" {
		t.Fatalf("decline reads %q, want the bare reason", got)
	}
	if !errors.Is(fmt.Errorf("member: %w", err), ErrInapplicable) {
		t.Fatal("a wrapped decline does not match ErrInapplicable")
	}
	if errors.Is(errors.New("outside envelope (9 > 8)"), ErrInapplicable) {
		t.Fatal("a plain error matches ErrInapplicable")
	}
}

func TestTableLookupAndNames(t *testing.T) {
	run := func(context.Context, *graph.Graph, int) (*int, error) { return new(int), nil }
	tab := Table[int]{{Name: "b", Run: run}, {Name: "a", Column: "col-a", Run: run}}
	if got := tab.Names(); !slices.Equal(got, []string{"b", "a"}) {
		t.Fatalf("Names = %v, want table order [b a]", got)
	}
	if e, ok := tab.Lookup("a"); !ok || e.Column != "col-a" {
		t.Fatalf("Lookup(a) = %+v, %v", e, ok)
	}
	if _, ok := tab.Lookup("c"); ok {
		t.Fatal("lookup of a missing name succeeded")
	}
}
