package regalloc

import (
	"context"

	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/strategy"
)

// The allocator strategy table (see package strategy): the IRC
// allocator, Chaitin-style allocations over selected coalescing modes,
// and the spill-then-coalesce pipeline. All members are polynomial; the
// service races them so that a slow member never delays a fast winning
// answer past the deadline.

// Strategies returns the allocator strategy table in presentation order
// — the service's default allocate race. Callers must not modify it.
func Strategies() strategy.Table[Result] { return table }

// Compare is the allocate portfolio ordering: the fewest spills, then
// the most coalesced weight. Positive means a is better.
func Compare(a, b *Result) int {
	switch {
	case len(a.Spilled) != len(b.Spilled):
		if len(a.Spilled) < len(b.Spilled) {
			return 1
		}
		return -1
	case a.CoalescedWeight != b.CoalescedWeight:
		if a.CoalescedWeight > b.CoalescedWeight {
			return 1
		}
		return -1
	}
	return 0
}

func allocate(mode Mode) func(context.Context, *graph.Graph, int) (*Result, error) {
	return func(_ context.Context, g *graph.Graph, k int) (*Result, error) { return Allocate(g, k, mode) }
}

func spillFirst(mode Mode) func(context.Context, *graph.Graph, int) (*Result, error) {
	return func(_ context.Context, g *graph.Graph, k int) (*Result, error) { return AllocateSpillFirst(g, k, mode) }
}

var table = strategy.Table[Result]{
	{Name: "irc", Column: "irc", Run: func(_ context.Context, g *graph.Graph, k int) (*Result, error) {
		return AllocateIRC(g, k)
	}},
	{Name: "briggs+george", Run: allocate(ModeConservative)},
	{Name: "optimistic", Run: allocate(ModeOptimistic)},
	{Name: "none", Run: allocate(ModeNone)},
	// The spill-first members guarantee a k-feasible answer with a
	// deliberate spill set where the optimistic select of the others may
	// strand many vertices. On an already greedy-k-colorable graph phase
	// two recomputes exactly the plain member of the same mode, so a race
	// declines them there; the check is one greedy elimination, a
	// fraction of a full allocation.
	{Name: "spill+briggs+george", Column: "spill+briggs+george", Run: spillFirst(ModeConservative), Redundant: greedy.IsGreedyKColorable},
	{Name: "spill+optimistic", Column: "spill+optimistic", Run: spillFirst(ModeOptimistic), Redundant: greedy.IsGreedyKColorable},
}
