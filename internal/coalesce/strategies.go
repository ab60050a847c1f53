package coalesce

import (
	"context"
	"errors"
	"fmt"

	"regcoal/internal/exact"
	"regcoal/internal/graph"
	"regcoal/internal/strategy"
)

// The coalescing strategy table: the single declaration of every named
// coalescing strategy, from which the regcoal facade, the benchmark
// matrix columns, the online service's portfolio and the session layer's
// member set are derived (see package strategy). Every entry takes a
// context so that expensive strategies can be raced under a deadline;
// polynomial strategies are free to ignore it.

// Strategies returns the coalescing strategy table in presentation
// order. Callers must not modify it.
func Strategies() strategy.Table[Result] { return table }

// LookupStrategy finds a strategy by name.
func LookupStrategy(name string) (*strategy.Entry[Result], bool) { return table.Lookup(name) }

// Compare is the portfolio ordering shared by the service's race and the
// session layer: answers that keep the graph colorable first, then the
// most coalesced weight, then the fewest residual moves. Positive means
// a is better; races keep the earlier member on ties.
func Compare(a, b *Result) int {
	if a.Colorable != b.Colorable {
		if a.Colorable {
			return 1
		}
		return -1
	}
	switch {
	case a.CoalescedWeight != b.CoalescedWeight:
		if a.CoalescedWeight > b.CoalescedWeight {
			return 1
		}
		return -1
	case len(a.Remaining) != len(b.Remaining):
		if len(a.Remaining) < len(b.Remaining) {
			return 1
		}
		return -1
	}
	return 0
}

// pure adapts a context-free strategy function.
func pure(run func(g *graph.Graph, k int) *Result) func(context.Context, *graph.Graph, int) (*Result, error) {
	return func(_ context.Context, g *graph.Graph, k int) (*Result, error) {
		return run(g, k), nil
	}
}

// conservative adapts Conservative under one merge test.
func conservative(test Test) func(context.Context, *graph.Graph, int) (*Result, error) {
	return pure(func(g *graph.Graph, k int) *Result { return Conservative(g, k, test) })
}

var table = strategy.Table[Result]{
	{Name: "aggressive", Column: "aggressive", Run: pure(Aggressive)}, // merge every move the interferences allow (§3)
	// Conservative coalescing (§4) under Briggs' rule, George's, either,
	// the extended George rule, the merge-and-check test, and that test
	// over sets of up to two moves.
	{Name: "briggs", Column: "briggs", Run: conservative(TestBriggs)},
	{Name: "george", Column: "george", Run: conservative(TestGeorge)},
	{Name: "briggs+george", Column: "briggs+george", Run: conservative(TestBriggsGeorge)},
	{Name: "ext-george", Column: "ext-george", Run: conservative(TestExtendedGeorge)},
	{Name: "brute", Column: "brute", Run: conservative(TestBrute)},
	{Name: "brute-sets", Column: "brute-sets", Run: pure(func(g *graph.Graph, k int) *Result {
		return ConservativeSets(g, k, 2)
	})},
	{Name: "optimistic", Column: "optimistic", Run: pure(Optimistic)}, // aggressive + de-coalescing (§5, Park–Moon)
	// Progressive chordal incremental coalescing (Thm 5); chordal inputs only.
	{Name: "chordal-inc", Run: func(_ context.Context, g *graph.Graph, k int) (*Result, error) {
		res, err := ChordalProgressive(g, k)
		if errors.Is(err, ErrNotChordal) {
			return nil, fmt.Errorf("coalesce: %w: %v", strategy.ErrInapplicable, err)
		}
		return res, err
	}},
	// Merge-to-color node merging (Vegdahl/Yang), not move-driven.
	{Name: "vegdahl", Run: func(_ context.Context, g *graph.Graph, k int) (*Result, error) {
		p, ok := MergeToColor(g, k)
		if !ok {
			return nil, fmt.Errorf("coalesce: %w: merge-to-color found no helpful merge", strategy.ErrInapplicable)
		}
		return summarize(g, p, k, 1), nil
	}},
	// Optimal conservative coalescing by branch and bound (the Thm 3
	// objective over greedy-k-colorable quotients); anytime. Outside its
	// envelope it declines instead of holding a worker for the whole
	// deadline.
	{Name: "exact", Column: "exact", Run: func(ctx context.Context, g *graph.Graph, k int) (*Result, error) {
		if !exact.InEnvelope(g) {
			return nil, strategy.Decline("instance outside exact envelope (moves %d > %d or vertices %d > %d)",
				g.NumAffinities(), exact.SearchMaxMoves, g.N(), exact.SearchMaxVertices)
		}
		res, err := exact.OptimalCoalescingCtx(ctx, g, k, exact.TargetGreedy, exact.MinimizeWeight)
		return summarize(g, res.P, k, 1), err
	}},
}
