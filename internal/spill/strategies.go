package spill

import (
	"context"

	"regcoal/internal/graph"
	"regcoal/internal/strategy"
)

// The graph spiller table (see package strategy): the rebuild-per-round
// greedy spiller, the incremental variant (identical answers, less work
// — racing both is deliberate: whichever the scheduler favors wins with
// the same plan), and the anytime exact search, which declines instances
// beyond its envelope and otherwise always answers: cut off by its
// context or its node budget, it returns its incumbent.

// Strategies returns the spiller table in presentation order — the
// service's default spill race. Callers must not modify it.
func Strategies() strategy.Table[Plan] { return table }

// Compare is the spill portfolio ordering: the cheapest spill set, then
// the fewest spills, then a proven-optimal answer. Positive means a is
// better.
func Compare(a, b *Plan) int {
	switch {
	case a.Cost != b.Cost:
		if a.Cost < b.Cost {
			return 1
		}
		return -1
	case len(a.Spilled) != len(b.Spilled):
		if len(a.Spilled) < len(b.Spilled) {
			return 1
		}
		return -1
	case a.Optimal != b.Optimal:
		if a.Optimal {
			return 1
		}
		return -1
	}
	return 0
}

type exactNodesKey struct{}

// WithExactNodes returns a context under which the table's exact entry
// searches at most nodes branch-and-bound nodes instead of
// ExactDefaultNodes — how a latency-bound race caps the member without
// a second declaration of it.
func WithExactNodes(ctx context.Context, nodes int) context.Context {
	return context.WithValue(ctx, exactNodesKey{}, nodes)
}

var table = strategy.Table[Plan]{
	{Name: "greedy", Column: "spill-greedy", Run: func(_ context.Context, g *graph.Graph, k int) (*Plan, error) {
		return Greedy(&graph.File{G: g, K: k}, nil)
	}},
	{Name: "incremental", Column: "spill-inc", Run: func(_ context.Context, g *graph.Graph, k int) (*Plan, error) {
		return Incremental(&graph.File{G: g, K: k}, nil)
	}},
	{Name: "exact", Column: "spill-exact", Run: func(ctx context.Context, g *graph.Graph, k int) (*Plan, error) {
		nodes, _ := ctx.Value(exactNodesKey{}).(int)
		return ExactBudget(ctx, &graph.File{G: g, K: k}, nil, nodes)
	}},
}
