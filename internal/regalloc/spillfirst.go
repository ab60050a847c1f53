package regalloc

import (
	"fmt"

	"regcoal/internal/graph"
	"regcoal/internal/ir"
	"regcoal/internal/spill"
)

// Spill-then-coalesce: the two-phase pipeline the paper's introduction
// describes and the spill-everywhere report analyzes. Phase one lowers
// register pressure to k (internal/spill), phase two coalesces and colors
// the now k-feasible residual. Unlike the Chaitin rebuild loop (Function,
// Allocate + optimistic select), the spill set is decided up front, so
// the allocation is k-feasible by construction even on instances whose
// pressure far exceeds k.

// AllocateSpillFirst evicts vertices until g is greedy-k-colorable
// (greedy furthest-first spilling), then coalesces the residual with the
// chosen mode and colors it. Spilled vertices report NoColor; move
// weights are accounted against the original graph, with moves touching
// a spilled endpoint counted as remaining.
func AllocateSpillFirst(g *graph.Graph, k int, mode Mode) (*Result, error) {
	plan, err := spill.Incremental(&graph.File{G: g, K: k}, nil)
	if err != nil {
		return nil, fmt.Errorf("regalloc: spill phase: %w", err)
	}
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = true
	}
	for _, v := range plan.Spilled {
		alive[v] = false
	}
	survivors := make([]graph.V, 0, g.N()-len(plan.Spilled))
	for v := 0; v < g.N(); v++ {
		if alive[v] {
			survivors = append(survivors, graph.V(v))
		}
	}
	sub, old2new := g.InducedSubgraph(survivors)
	subRes, err := Allocate(sub, k, mode)
	if err != nil {
		return nil, err
	}
	res := &Result{Coloring: graph.NewColoring(g.N()), Evicted: len(plan.Spilled)}
	res.Spilled = append(res.Spilled, plan.SortedSpills()...)
	for _, v := range survivors {
		res.Coloring[v] = subRes.Coloring[old2new[v]]
	}
	// An aggressive mode can over-coalesce the (colorable) residual and
	// leave optimistic select with actual spills; surface them as spills
	// of the original graph.
	for _, v := range subRes.Spilled {
		res.Spilled = append(res.Spilled, survivors[v])
	}
	for _, a := range g.Affinities() {
		if res.Coloring[a.X] != graph.NoColor && res.Coloring[a.X] == res.Coloring[a.Y] {
			res.CoalescedWeight += a.Weight
		} else {
			res.RemainingWeight += a.Weight
		}
	}
	return res, nil
}

// FunctionSpillFirst allocates a φ-free function with k registers in two
// phases: spill-everywhere until Maxlive <= k (spill.ReduceFunc, with
// incrementally maintained liveness), then the build–coalesce–color loop.
// After phase one the interference graph usually colors in one round;
// the Chaitin rebuild loop remains as a safety net for the rare residual
// whose lowered (non-chordal) graph still misses k.
func FunctionSpillFirst(f *ir.Func, k int, mode Mode) (*FunctionResult, error) {
	work := f.Clone()
	pre, ok := spill.ReduceFunc(work, k)
	if !ok {
		return nil, fmt.Errorf("regalloc: cannot reduce Maxlive to %d: more than %d values collide at one instruction", k, k)
	}
	res, err := Function(work, k, mode)
	if err != nil {
		return nil, err
	}
	// Function counted distinct store slots on the final code, which
	// already includes phase one's slots; only the round count needs the
	// phase-one prefix made visible.
	res.Rounds += len(pre)
	return res, nil
}
