package coalesce

import (
	"sort"

	"regcoal/internal/chordal"
	"regcoal/internal/graph"
)

// ChordalProgressive implements the strategy the paper sketches right
// after Theorem 5: on a chordal graph, coalesce affinities one at a time,
// deciding each with the polynomial Theorem 5 test, and after each
// accepted merge make the graph chordal again "by an appropriate merge of
// vertices" — here by merging the whole interval class the decision
// returns and adding the padding-clique edges, which restores a
// subtree-of-a-tree representation while keeping ω ≤ k.
//
// The paper warns that "these artificial merges may prevent to coalesce
// more important affinities afterwards"; processing affinities by
// decreasing weight puts the important ones first, and the ablation
// experiment measures the remaining loss against the brute-force driver.
//
// The input must be chordal with ω(g) ≤ k. The result's partition maps the
// original vertices; Colorable is always true on a valid input (the final
// graph is k-colorable by construction).
func ChordalProgressive(g *graph.Graph, k int) (*Result, error) {
	if !chordal.IsChordal(g) {
		return nil, ErrNotChordal
	}
	p := graph.NewPartition(g.N())
	// cur is the working chordal graph: the quotient of g by p, PLUS the
	// artificial padding edges accumulated by previous merges. We carry
	// those edges across quotients by an explicit extra-edge list on
	// original-vertex representatives.
	type extraEdge struct{ a, b graph.V } // original-vertex ids
	var extras []extraEdge
	// Every round's working graph is dropped at the next build, so all of
	// them are built into one pooled buffer.
	qb := graph.AcquireQuotientBuf()
	defer qb.Release()
	build := func() (*graph.Graph, []graph.V, error) {
		q, old2new, err := qb.Build(g, p)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range extras {
			x, y := old2new[e.a], old2new[e.b]
			if x != y {
				q.AddEdge(x, y)
			}
		}
		return q, old2new, nil
	}
	affs := append([]graph.Affinity(nil), g.Affinities()...)
	sort.SliceStable(affs, func(i, j int) bool {
		if affs[i].Weight != affs[j].Weight {
			return affs[i].Weight > affs[j].Weight
		}
		if affs[i].X != affs[j].X {
			return affs[i].X < affs[j].X
		}
		return affs[i].Y < affs[j].Y
	})
	rounds := 0
	for _, a := range affs {
		rounds++
		cur, old2new, err := build()
		if err != nil {
			return nil, err
		}
		cx, cy := old2new[a.X], old2new[a.Y]
		if cx == cy {
			continue // already coalesced transitively
		}
		if cur.HasEdge(cx, cy) {
			continue // constrained (possibly by an artificial edge)
		}
		dec, err := ChordalIncremental(cur, cx, cy, k)
		if err != nil {
			// The working graph must stay chordal by construction; a
			// failure here is a bug worth surfacing.
			return nil, err
		}
		if !dec.OK {
			continue
		}
		// Merge the whole decision class (x, y and the bridging interval
		// vertices) and record the padding edges so the next round's graph
		// keeps a chordal representation.
		classReps := dec.Class
		// Map quotient vertices back to an original representative.
		repOf := make(map[graph.V]graph.V, cur.N())
		for ov := 0; ov < g.N(); ov++ {
			if _, seen := repOf[old2new[ov]]; !seen {
				repOf[old2new[ov]] = graph.V(ov)
			}
		}
		base := repOf[cx]
		for _, cv := range classReps {
			p.Union(base, repOf[cv])
		}
		for _, clique := range dec.PaddingCliques {
			for _, w := range clique {
				if w != cx && w != cy {
					extras = append(extras, extraEdge{a: base, b: repOf[w]})
				}
			}
		}
	}
	// Summarize against the ORIGINAL graph (artificial edges are
	// bookkeeping, not interference).
	res := summarize(g, p, 0, rounds)
	cur, _, err := build()
	if err != nil {
		return nil, err
	}
	peo, ok := chordal.PEO(cur)
	res.Colorable = ok && chordal.Omega(cur, peo) <= k
	return res, nil
}
