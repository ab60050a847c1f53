package spill

import (
	"context"
	"sort"

	"regcoal/internal/graph"
	"regcoal/internal/strategy"
)

// ExactMaxVertices bounds the instances Exact admits: the search memoizes
// visited residual sets as 64-bit masks, so larger graphs are rejected
// (callers fall back to Greedy/Incremental, which scale to service-size
// graphs).
const ExactMaxVertices = 64

// ExactDefaultNodes bounds the branch-and-bound tree in Exact. The cap
// is a node count, not a wall clock, so hitting it is deterministic:
// the same instance explores the same prefix of the same tree
// everywhere. Beyond it the search stops and keeps its incumbent
// (Optimal false), exactly as if the context had been cancelled.
// Latency-sensitive callers pass a smaller budget through ExactBudget,
// or to the strategy table's exact entry through WithExactNodes (the
// service's portfolio race).
const ExactDefaultNodes = 1 << 18

// ErrEnvelope marks an instance outside Exact's feasibility envelope; as
// a strategy table member's answer it is a decline.
var ErrEnvelope = strategy.Decline("spill: instance outside exact envelope (> %d vertices)", ExactMaxVertices)

// Exact finds a minimum-cost spill set by branch and bound. Soundness of
// the branching rule: a residual graph that is not greedy-k-colorable
// contains a witness core of minimum degree >= k, and any feasible spill
// set must evict at least one of its non-precolored vertices — so
// branching over exactly the core's members explores every optimum.
//
// The search is anytime: the incumbent is seeded with the Greedy plan, so
// Exact never returns a worse plan than Greedy, and cancelling ctx
// mid-search returns the best plan found so far with Optimal left false.
// A completed search returns Optimal true. Ties between equal-cost spill
// sets are resolved toward the first one found in the deterministic DFS
// order, so results are reproducible.
func Exact(ctx context.Context, f *graph.File, costs []int64) (*Plan, error) {
	return ExactBudget(ctx, f, costs, ExactDefaultNodes)
}

// ExactBudget is Exact with an explicit node budget, trading proof
// strength for bounded latency.
func ExactBudget(ctx context.Context, f *graph.File, costs []int64, maxNodes int) (*Plan, error) {
	if f.G.N() > ExactMaxVertices {
		return nil, ErrEnvelope
	}
	if maxNodes <= 0 {
		maxNodes = ExactDefaultNodes
	}
	incumbent, err := Greedy(f, costs)
	if err != nil {
		return nil, err
	}
	if len(incumbent.Spilled) == 0 {
		incumbent.Optimal = true
		return incumbent, nil // already k-colorable: the empty spill set is optimal
	}
	g, k := f.G, f.K
	n := g.N()
	alive := graph.NewBits(n)
	alive.Fill(n)
	mask := uint64(0)
	for v := 0; v < n; v++ {
		mask |= 1 << uint(v)
	}
	s := &exactSearch{
		ctx:      ctx,
		g:        g,
		k:        k,
		costs:    costs,
		maxNodes: maxNodes,
		bestCost: incumbent.Cost,
		bestSet:  append([]graph.V(nil), incumbent.SortedSpills()...),
		seen:     make(map[uint64]bool),
	}
	s.dfs(alive, mask, nil, 0)
	plan, err := s.plan(f)
	if err != nil {
		return nil, err
	}
	plan.Optimal = !s.cancelled
	return plan, nil
}

type exactSearch struct {
	ctx       context.Context
	g         *graph.Graph
	k         int
	costs     []int64
	maxNodes  int
	bestCost  int64
	bestSet   []graph.V // sorted
	seen      map[uint64]bool
	cancelled bool
	polls     int
}

// dfs explores the residual set alive (= mask). cur is the eviction path,
// curCost its cost.
func (s *exactSearch) dfs(alive graph.Bits, mask uint64, cur []graph.V, curCost int64) {
	if s.cancelled {
		return
	}
	// Poll for cancellation every few nodes and stop at the node budget;
	// the search stays anytime either way.
	s.polls++
	if s.polls >= s.maxNodes {
		s.cancelled = true
		return
	}
	if s.polls%64 == 0 {
		select {
		case <-s.ctx.Done():
			s.cancelled = true
			return
		default:
		}
	}
	if s.seen[mask] {
		return
	}
	s.seen[mask] = true
	remaining := eliminateAlive(s.g, alive, s.k)
	if len(remaining) == 0 {
		if curCost < s.bestCost {
			s.bestCost = curCost
			s.bestSet = sortedCopy(cur)
		}
		return
	}
	// Lower bound: any completion must evict at least one core member.
	minCost := costOf(s.costs, remaining[0])
	for _, v := range remaining[1:] {
		if c := costOf(s.costs, v); c < minCost {
			minCost = c
		}
	}
	if curCost+minCost >= s.bestCost {
		return
	}
	for _, v := range remaining {
		alive.Clear(v)
		s.dfs(alive, mask&^(1<<uint(v)), append(cur, v), curCost+costOf(s.costs, v))
		alive.Set(v)
		if s.cancelled {
			return
		}
	}
}

func sortedCopy(vs []graph.V) []graph.V {
	out := append([]graph.V(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// plan materializes the best spill set found.
func (s *exactSearch) plan(f *graph.File) (*Plan, error) {
	alive := graph.NewBits(f.G.N())
	alive.Fill(f.G.N())
	for _, v := range s.bestSet {
		alive.Clear(v)
	}
	return finishPlan(f, alive, s.bestSet, s.costs, len(s.bestSet))
}
