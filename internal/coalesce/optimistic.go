package coalesce

import (
	"sort"

	"regcoal/internal/graph"
	"regcoal/internal/greedy"
)

// DecoalesceOrder selects which coalesced move the optimistic phase gives
// up first when the coalesced graph is not greedy-k-colorable.
type DecoalesceOrder int

const (
	// DecoalesceWitnessMinWeight gives up the cheapest move whose merged
	// class sits inside the non-simplifiable witness subgraph — the move
	// most likely to unblock simplification at the least cost. This is the
	// structure-aware order in the spirit of Park–Moon's primary/secondary
	// de-coalescing.
	DecoalesceWitnessMinWeight DecoalesceOrder = iota
	// DecoalesceGlobalMinWeight ignores the witness and always gives up the
	// globally cheapest coalesced move; the ablation baseline.
	DecoalesceGlobalMinWeight
)

// String names the order for reports.
func (d DecoalesceOrder) String() string {
	if d == DecoalesceWitnessMinWeight {
		return "witness-min-weight"
	}
	return "global-min-weight"
}

// Optimistic implements Park–Moon optimistic coalescing as discussed in §5:
//
//  1. Aggressive phase: coalesce every move the interferences allow,
//     highest weight first.
//  2. De-coalescing phase: while the coalesced graph is not
//     greedy-k-colorable, give up one coalesced move (per order) and
//     rebuild; the witness-guided order picks the cheapest move whose class
//     vertex lies in the stuck subgraph.
//  3. Re-coalescing pass: try every given-up move again with the
//     brute-force conservative test — de-coalescing one class can make
//     another given-up move safe after all.
//
// On a greedy-k-colorable input the result is always colorable (in the
// worst case everything is given up and the graph returns to g).
func Optimistic(g *graph.Graph, k int) *Result {
	return OptimisticOrdered(g, k, DecoalesceWitnessMinWeight)
}

// OptimisticOrdered is Optimistic with an explicit de-coalescing order,
// used by the ablation benchmarks.
func OptimisticOrdered(g *graph.Graph, k int, ord DecoalesceOrder) *Result {
	affs := g.Affinities()
	// Phase 1: aggressive, tracking which affinities got coalesced.
	p := graph.NewPartition(g.N())
	inSet := make([]bool, len(affs))
	for _, i := range affinityOrder(g) {
		a := affs[i]
		if graph.CanMerge(g, p, a.X, a.Y) {
			p.Union(a.X, a.Y)
			inSet[i] = true
		}
	}
	// Each round's coalesced graph is read and dropped, so every rebuild
	// goes into one pooled buffer.
	qb := graph.AcquireQuotientBuf()
	rebuild := func() (*graph.Partition, *graph.Graph, []graph.V) {
		np := graph.NewPartition(g.N())
		for i, in := range inSet {
			if in {
				np.Union(affs[i].X, affs[i].Y)
			}
		}
		q, old2new, err := qb.Build(g, np)
		if err != nil {
			panic("coalesce: optimistic rebuild incompatible: " + err.Error())
		}
		return np, q, old2new
	}
	// Phase 2: de-coalesce until greedy-k-colorable.
	rounds := 0
	var cur *graph.Graph
	var old2new []graph.V
	for {
		rounds++
		p, cur, old2new = rebuild()
		if greedy.IsGreedyKColorable(cur, k) {
			break
		}
		drop := -1
		switch ord {
		case DecoalesceWitnessMinWeight:
			witness := greedy.Witness(cur, k)
			inWitness := graph.NewBits(cur.N())
			for _, w := range witness {
				inWitness.Set(w)
			}
			for i, in := range inSet {
				if !in || !inWitness.Get(old2new[affs[i].X]) {
					continue
				}
				if drop == -1 || affs[i].Weight < affs[drop].Weight {
					drop = i
				}
			}
			if drop != -1 {
				break
			}
			fallthrough // no coalesced class in the witness: fall back
		case DecoalesceGlobalMinWeight:
			for i, in := range inSet {
				if !in {
					continue
				}
				if drop == -1 || affs[i].Weight < affs[drop].Weight {
					drop = i
				}
			}
		}
		if drop == -1 {
			// Nothing left to give up: g itself is not greedy-k-colorable.
			break
		}
		inSet[drop] = false
	}
	qb.Release()
	// Phase 3: conservative re-coalescing of given-up moves, heaviest
	// first, with the brute-force test.
	var retry []int
	for i, in := range inSet {
		if !in {
			retry = append(retry, i)
		}
	}
	sort.SliceStable(retry, func(a, b int) bool {
		return affs[retry[a]].Weight > affs[retry[b]].Weight
	})
	for _, i := range retry {
		a := affs[i]
		if BruteOK(g, p, a.X, a.Y, k) {
			p.Union(a.X, a.Y)
			inSet[i] = true
		}
	}
	return summarize(g, p, k, rounds)
}
