package coalesce

import (
	"fmt"
	mbits "math/bits"
	"sync"

	"regcoal/internal/graph"
	"regcoal/internal/greedy"
)

// trialPool recycles the scratch partitions the brute-force tests merge
// on: one trial per probed affinity per round added up to the dominant
// allocation of TestBrute-driven strategies. CopyFrom reuses the pooled
// partition's storage and the quotient is built into a pooled
// graph.QuotientBuf, so a warmed pool probes without heap traffic.
var trialPool = sync.Pool{New: func() any { return new(graph.Partition) }}

// Test selects the conservative test used to accept or reject a merge.
type Test int

const (
	// TestBriggs accepts a merge when the merged vertex would have fewer
	// than k neighbors of significant degree (Briggs, Cooper & Torczon).
	TestBriggs Test = iota
	// TestGeorge accepts a merge of u into v when every significant
	// neighbor of u is already a neighbor of v (George & Appel). Both
	// directions are tried, as the paper's §4 recommends for the
	// spill-free setting.
	TestGeorge
	// TestBriggsGeorge accepts when either rule does — the combination the
	// paper suggests for the last phase of Chaitin-like allocators.
	TestBriggsGeorge
	// TestExtendedGeorge relaxes George's rule as mentioned in §4: a
	// neighbor t of u needs to be a neighbor of v only when t itself has at
	// least k neighbors of significant degree (otherwise t is removable
	// before the merged vertex matters).
	TestExtendedGeorge
	// TestBrute merges tentatively and checks greedy-k-colorability of the
	// whole coalesced graph in linear time — the "simply use brute force"
	// test of §4. Strictly more powerful than the local rules, at a higher
	// per-move cost.
	TestBrute
)

// String names the test for reports.
func (t Test) String() string {
	switch t {
	case TestBriggs:
		return "briggs"
	case TestGeorge:
		return "george"
	case TestBriggsGeorge:
		return "briggs+george"
	case TestExtendedGeorge:
		return "ext-george"
	case TestBrute:
		return "brute"
	}
	return fmt.Sprintf("Test(%d)", int(t))
}

// significant reports whether quotient vertex w blocks simplification:
// degree >= k or precolored (machine registers are never simplified).
func significant(cur *graph.Graph, w graph.V, k int) bool {
	if _, pinned := cur.Precolored(w); pinned {
		return true
	}
	return cur.Degree(w) >= k
}

// BriggsOK applies Briggs' conservative test to merging quotient vertices
// cx and cy in cur: the merge is safe when the merged vertex has fewer than
// k significant neighbors. Degrees are evaluated after the merge: a common
// neighbor of cx and cy loses one edge. The neighborhood union
// N(cx) ∪ N(cy) is scanned word-parallelly over the bitset rows — the
// union deduplicates for free, where the map-backed version kept a
// per-call seen set.
func BriggsOK(cur *graph.Graph, cx, cy graph.V, k int) bool {
	if cur.HasEdge(cx, cy) {
		return false
	}
	rx, ry := cur.BitsetNeighbors(cx), cur.BitsetNeighbors(cy)
	count := 0
	for i := range rx {
		m := rx[i] | ry[i]
		for m != 0 {
			bit := m & -m
			m &^= bit
			w := graph.V(i<<6) + graph.V(mbits.TrailingZeros64(bit))
			deg := cur.Degree(w)
			if rx[i]&bit != 0 && ry[i]&bit != 0 {
				deg-- // cx and cy collapse into one neighbor of w
			}
			if _, pinned := cur.Precolored(w); pinned || deg >= k {
				count++
				if count >= k {
					return false
				}
			}
		}
	}
	return count < k
}

// GeorgeOK applies George's conservative test for merging a into b (the
// asymmetric direction "a's significant neighbors are already b's
// neighbors").
func GeorgeOK(cur *graph.Graph, a, b graph.V, k int) bool {
	if cur.HasEdge(a, b) {
		return false
	}
	ok := true
	cur.ForEachNeighbor(a, func(t graph.V) {
		if !ok || t == b {
			return
		}
		if significant(cur, t, k) && !cur.HasEdge(t, b) {
			ok = false
		}
	})
	return ok
}

// ExtendedGeorgeOK is the §4 extension of George's test: a neighbor t of a
// that is not covered by b may also be ignored when t itself will simplify
// before the merged vertex matters — that is, when t has fewer than k
// significant neighbors, so that removing t's insignificant neighbors drops
// t below degree k. Significance is evaluated in the post-merge graph: the
// merged vertex ab is conservatively counted as significant, and a common
// neighbor of a and b loses one degree.
//
// Soundness argument (mirrors the paper's George argument): in the merged
// graph, first eliminate every vertex of degree < k to a fixpoint; every
// ignored t falls in that cascade (its remaining neighbors are its
// post-merge-significant ones, fewer than k of them). The residual graph
// maps into the original graph with ab playing b, hence stays
// greedy-k-colorable.
func ExtendedGeorgeOK(cur *graph.Graph, a, b graph.V, k int) bool {
	if cur.HasEdge(a, b) {
		return false
	}
	postDeg := func(w graph.V) int {
		d := cur.Degree(w)
		if cur.HasEdge(w, a) && cur.HasEdge(w, b) {
			d-- // a and b collapse into one neighbor of w
		}
		return d
	}
	postSignificant := func(w graph.V) bool {
		if w == a || w == b {
			return true // the merged vertex: conservatively significant
		}
		if _, pinned := cur.Precolored(w); pinned {
			return true
		}
		return postDeg(w) >= k
	}
	ok := true
	cur.ForEachNeighbor(a, func(t graph.V) {
		if !ok || t == b || cur.HasEdge(t, b) {
			return
		}
		if _, pinned := cur.Precolored(t); pinned {
			ok = false
			return
		}
		if postDeg(t) < k {
			return // plain insignificant neighbor: ignorable as in George
		}
		// Briggs-style condition on t: fewer than k significant neighbors
		// post-merge, counting ab once.
		sig := 0
		countedAB := false
		cur.ForEachNeighbor(t, func(s graph.V) {
			if s == a || s == b {
				if !countedAB {
					countedAB = true
					sig++
				}
				return
			}
			if postSignificant(s) {
				sig++
			}
		})
		if sig >= k {
			ok = false
		}
	})
	return ok
}

// BruteOK tests a merge by performing it on a pooled scratch copy and
// checking greedy-k-colorability of the whole coalesced graph.
func BruteOK(g *graph.Graph, p *graph.Partition, x, y graph.V, k int) bool {
	if !graph.CanMerge(g, p, x, y) {
		return false
	}
	trial := trialPool.Get().(*graph.Partition)
	trial.CopyFrom(p)
	trial.Union(x, y)
	ok := greedyQuotient(g, trial, k)
	trialPool.Put(trial)
	return ok
}

// greedyQuotient reports whether the coalesced graph of g by p exists and
// is greedy-k-colorable, building it into a pooled buffer: the probe
// throws G_f away, so it need not allocate one.
func greedyQuotient(g *graph.Graph, p *graph.Partition, k int) bool {
	qb := graph.AcquireQuotientBuf()
	defer qb.Release()
	q, _, err := qb.Build(g, p)
	return err == nil && greedy.IsGreedyKColorable(q, k)
}

// BruteSetOK tests coalescing a whole set of affinities simultaneously —
// the set variant of the brute-force test that rescues the Figure 3
// situations where every individual merge is rejected but the simultaneous
// merge is safe.
func BruteSetOK(g *graph.Graph, p *graph.Partition, set []graph.Affinity, k int) bool {
	trial := trialPool.Get().(*graph.Partition)
	defer trialPool.Put(trial)
	trial.CopyFrom(p)
	for _, a := range set {
		if !graph.CanMerge(g, trial, a.X, a.Y) {
			return false
		}
		trial.Union(a.X, a.Y)
	}
	return greedyQuotient(g, trial, k)
}

// Conservative coalesces affinities one at a time, highest weight first,
// accepting a merge only when the chosen test passes on the current
// coalesced graph. It iterates to a fixpoint: a merge can unblock another
// affinity (including affinities "obtained by transitivity"), so rounds
// repeat until nothing changes. The incremental, priority-driven shape is
// exactly the paper's "incremental conservative coalescing" heuristic
// family.
func Conservative(g *graph.Graph, k int, test Test) *Result {
	s := newState(g)
	defer s.release()
	affs := g.Affinities()
	order := affinityOrder(g)
	ar := graph.GetArena()
	defer ar.Release()
	done := ar.Bools(len(affs))
	rounds := 0
	for {
		rounds++
		changed := false
		for _, i := range order {
			if done[i] {
				continue
			}
			a := affs[i]
			cx, cy := s.mapped(a)
			if cx == cy {
				done[i] = true // coalesced transitively
				continue
			}
			if s.cur.HasEdge(cx, cy) {
				// Constrained move: classes only grow, so the interference
				// never goes away.
				done[i] = true
				continue
			}
			pass := false
			switch test {
			case TestBriggs:
				pass = BriggsOK(s.cur, cx, cy, k)
			case TestGeorge:
				pass = GeorgeOK(s.cur, cx, cy, k) || GeorgeOK(s.cur, cy, cx, k)
			case TestBriggsGeorge:
				pass = BriggsOK(s.cur, cx, cy, k) ||
					GeorgeOK(s.cur, cx, cy, k) || GeorgeOK(s.cur, cy, cx, k)
			case TestExtendedGeorge:
				pass = ExtendedGeorgeOK(s.cur, cx, cy, k) || ExtendedGeorgeOK(s.cur, cy, cx, k)
			case TestBrute:
				pass = BruteOK(g, s.p, a.X, a.Y, k)
			}
			if pass {
				s.merge(a.X, a.Y)
				done[i] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return summarize(g, s.p, k, rounds)
}

// IncrementalOne answers the incremental conservative coalescing question
// for a single affinity with the brute-force test: can (x, y) be coalesced
// so that the graph stays greedy-k-colorable? It does not mutate g.
func IncrementalOne(g *graph.Graph, x, y graph.V, k int) bool {
	return BruteOK(g, graph.NewPartition(g.N()), x, y, k)
}
