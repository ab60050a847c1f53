package coalesce

import (
	"regcoal/internal/graph"
)

// ConservativeSets extends the brute-force conservative driver with the
// §4 suggestion that escapes the Figure 3 incremental trap: when no single
// affinity can be coalesced conservatively, try small SETS of remaining
// affinities simultaneously (pairs, then triples up to maxSet), accepting
// a set when the simultaneous merge keeps the graph greedy-k-colorable.
// Coalescing a set is exactly coalescing "affinities obtained by
// transitivity": merging (a,b) and (a,c) together implies the derived pair
// (b,c).
//
// Cost: O(A^maxSet) set probes per round in the worst case, each a linear
// greedy check — still polynomial for fixed maxSet, and maxSet = 2 already
// solves the paper's triangle example.
func ConservativeSets(g *graph.Graph, k, maxSet int) *Result {
	if maxSet < 1 {
		maxSet = 1
	}
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
		// Pass 1: singles, highest weight first.
		for _, i := range order {
			if done[i] {
				continue
			}
			a := affs[i]
			cx, cy := s.mapped(a)
			if cx == cy {
				done[i] = true
				continue
			}
			if s.cur.HasEdge(cx, cy) {
				done[i] = true
				continue
			}
			if BruteOK(g, s.p, a.X, a.Y, k) {
				s.merge(a.X, a.Y)
				done[i] = true
				changed = true
			}
		}
		if changed {
			continue
		}
		// Pass 2: grow sets of remaining affinities. Greedy: seed with
		// each remaining affinity in weight order, extend with others
		// while the combined merge stays safe AND the set alone is safe.
		var remaining []int
		for _, i := range order {
			if !done[i] {
				cx, cy := s.mapped(affs[i])
				if cx != cy && !s.cur.HasEdge(cx, cy) {
					remaining = append(remaining, i)
				}
			}
		}
		for si := 0; si < len(remaining) && !changed; si++ {
			set := []graph.Affinity{affs[remaining[si]]}
			members := []int{remaining[si]}
			for sj := 0; sj < len(remaining) && len(set) < maxSet; sj++ {
				if sj == si {
					continue
				}
				trial := append(append([]graph.Affinity(nil), set...), affs[remaining[sj]])
				if BruteSetOK(g, s.p, trial, k) {
					set = trial
					members = append(members, remaining[sj])
				}
			}
			if len(set) < 2 {
				continue // a singleton here was already rejected in pass 1
			}
			if !BruteSetOK(g, s.p, set, k) {
				continue
			}
			for _, a := range set {
				s.p.Union(a.X, a.Y)
			}
			s.refresh()
			for _, m := range members {
				done[m] = true
			}
			changed = true
		}
		if !changed {
			break
		}
	}
	return summarize(g, s.p, k, rounds)
}
