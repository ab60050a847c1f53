package coalesce

import (
	"errors"
	"fmt"

	"regcoal/internal/chordal"
	"regcoal/internal/graph"
)

// ErrNotChordal is returned by ChordalIncremental when the input graph is
// not chordal (the Theorem 5 algorithm is only valid on chordal graphs).
var ErrNotChordal = errors.New("coalesce: graph is not chordal")

// ChordalDecision is the constructive answer of the Theorem 5 algorithm.
type ChordalDecision struct {
	// OK reports whether x and y can receive the same color in some proper
	// k-coloring of the chordal graph.
	OK bool
	// Class, when OK, lists the vertices to merge with x and y (including
	// x and y themselves) so that coloring the quotient realizes the
	// identification. The class is pairwise non-interfering.
	Class []graph.V
	// PaddingCliques, when OK, holds the vertex sets of the path cliques
	// the tiling crossed via padding (dummy) intervals. Coloring the
	// quotient stays within k colors because each such clique has fewer
	// than k vertices.
	PaddingCliques [][]graph.V
}

// ChordalIncremental solves incremental conservative coalescing on chordal
// graphs in polynomial time (paper, Theorem 5): given a chordal graph g, an
// affinity (x, y), and k colors, decide whether some proper k-coloring of g
// gives x and y the same color — and produce the witnessing merge.
//
// The algorithm follows the paper's proof (Figure 5):
//
//  1. Represent g as subtrees of its clique tree (Golumbic Thm 4.8).
//  2. Answer "no" immediately if x and y interfere or k < ω(g); "yes"
//     immediately if their subtrees live in different tree components.
//  3. Take the tree path P from a clique of x to a clique of y, trimmed so
//     that only its first node contains x and only its last contains y.
//     Each vertex's subtree meets P in a contiguous interval.
//  4. Pad every path node whose clique has fewer than k vertices with
//     dummy unit intervals, so each node is covered by exactly k intervals.
//     (The paper pads to ω(G) under its running assumption k = ω; padding
//     to k is the straightforward generalization that keeps the claim true
//     for k > ω — see EXPERIMENTS.md.)
//  5. x and y can share a color iff disjoint intervals, including Ix and
//     Iy, cover all nodes of P — decided left-to-right in O(V·ω(G)) by
//     tiling: an interval may start exactly where the previous one ended.
//
// Merging the chosen intervals' vertices (plus x and y) yields a graph that
// is k-colorable; ChordalIncrementalColoring builds such a coloring.
func ChordalIncremental(g *graph.Graph, x, y graph.V, k int) (*ChordalDecision, error) {
	if x == y {
		return &ChordalDecision{OK: true, Class: []graph.V{x}}, nil
	}
	if g.HasEdge(x, y) {
		return &ChordalDecision{OK: false}, nil
	}
	ct, ok := chordal.NewCliqueTree(g)
	if !ok {
		return nil, ErrNotChordal
	}
	omega := 0
	for _, c := range ct.Cliques {
		if len(c) > omega {
			omega = len(c)
		}
	}
	if k < omega {
		return &ChordalDecision{OK: false}, nil
	}
	if len(ct.Member[x]) == 0 || len(ct.Member[y]) == 0 {
		return nil, fmt.Errorf("coalesce: vertex missing from clique tree")
	}
	rawPath, connected := ct.Path(ct.Member[x][0], ct.Member[y][0])
	if !connected {
		// Different components: color them independently, x and y share a
		// color trivially.
		return &ChordalDecision{OK: true, Class: []graph.V{x, y}}, nil
	}
	// Trim: keep from the last node containing x to the first node (after
	// that) containing y. Subtree∩path contiguity makes both well defined.
	lastX := 0
	for i, n := range rawPath {
		if ct.Contains(n, x) {
			lastX = i
		}
	}
	firstY := len(rawPath) - 1
	for i := lastX; i < len(rawPath); i++ {
		if ct.Contains(rawPath[i], y) {
			firstY = i
			break
		}
	}
	path := rawPath[lastX : firstY+1]
	m := len(path)
	if m < 2 {
		// x and y share a clique — but then they interfere, already
		// handled. Defensive.
		return &ChordalDecision{OK: false}, nil
	}
	// Intervals of all vertices over the trimmed path, indexed by start.
	type interval struct {
		v      graph.V
		lo, hi int
	}
	startsAt := make([][]interval, m)
	for v := 0; v < g.N(); v++ {
		if graph.V(v) == x || graph.V(v) == y {
			continue
		}
		lo, hi, ok := ct.VertexPathInterval(path, graph.V(v))
		if !ok {
			continue
		}
		startsAt[lo] = append(startsAt[lo], interval{v: graph.V(v), lo: lo, hi: hi})
	}
	// Padding availability: node p admits a dummy unit interval iff its
	// clique has fewer than k members.
	padOK := make([]bool, m)
	for i, n := range path {
		padOK[i] = len(ct.Cliques[n]) < k
	}
	// Tiling DP left to right. reach[b] = positions 0..b-1 are tiled by
	// disjoint intervals starting with Ix = [0,0]. pred reconstructs the
	// tiling: predVertex[b] is the real vertex whose interval ends at b-1,
	// or -1 for a padding step, or -2 for unreached.
	reach := make([]bool, m+1)
	predVertex := make([]graph.V, m+1)
	predFrom := make([]int, m+1)
	for i := range predVertex {
		predVertex[i] = -2
	}
	reach[1] = true // Ix covers node 0
	predVertex[1] = x
	predFrom[1] = 0
	for b := 1; b < m; b++ {
		if !reach[b] {
			continue
		}
		if padOK[b] && !reach[b+1] {
			reach[b+1] = true
			predVertex[b+1] = -1
			predFrom[b+1] = b
		}
		for _, iv := range startsAt[b] {
			end := iv.hi + 1
			// Iy must be the final interval: real intervals may not cover
			// the last node (only y's own interval does; y's interval is
			// exactly [m-1, m-1] by the trimming).
			if iv.hi >= m-1 {
				continue
			}
			if !reach[end] {
				reach[end] = true
				predVertex[end] = iv.v
				predFrom[end] = b
			}
		}
	}
	if !reach[m-1] {
		return &ChordalDecision{OK: false}, nil
	}
	// Reconstruct the tiling from boundary m-1 back to 0; then Iy finishes.
	dec := &ChordalDecision{OK: true, Class: []graph.V{x, y}}
	for b := m - 1; b > 1; b = predFrom[b] {
		switch predVertex[b] {
		case -1:
			// Padding step at node predFrom[b]: record the crossed clique.
			node := path[predFrom[b]]
			dec.PaddingCliques = append(dec.PaddingCliques, ct.Cliques[node])
		case -2:
			panic("coalesce: broken tiling reconstruction")
		default:
			dec.Class = append(dec.Class, predVertex[b])
		}
	}
	return dec, nil
}

// ChordalIncrementalColoring runs ChordalIncremental and, when the answer
// is yes, produces an actual proper k-coloring of g with col[x] == col[y].
// Following the paper's proof, it merges the decision's class, adds the
// padding-clique edges (so the quotient regains a chordal supergraph
// representation), and colors that supergraph optimally.
func ChordalIncrementalColoring(g *graph.Graph, x, y graph.V, k int) (graph.Coloring, bool, error) {
	dec, err := ChordalIncremental(g, x, y, k)
	if err != nil {
		return nil, false, err
	}
	if !dec.OK {
		return nil, false, nil
	}
	p := graph.NewPartition(g.N())
	for _, v := range dec.Class {
		p.Union(x, v)
	}
	qb := graph.AcquireQuotientBuf()
	defer qb.Release()
	q, old2new, err := qb.Build(g, p)
	if err != nil {
		return nil, false, fmt.Errorf("coalesce: merge class interferes internally: %w", err)
	}
	// Add the padding edges: the merged class crosses these cliques with a
	// dummy interval, which in the supergraph representation makes it
	// adjacent to every clique member.
	classVertex := old2new[x]
	for _, clique := range dec.PaddingCliques {
		for _, w := range clique {
			if old2new[w] != classVertex {
				q.AddEdge(classVertex, old2new[w])
			}
		}
	}
	col, omega, ok := chordal.Color(q)
	if !ok {
		return nil, false, fmt.Errorf("coalesce: supergraph not chordal (bug)")
	}
	if omega > k {
		return nil, false, fmt.Errorf("coalesce: supergraph needs %d > k=%d colors (bug)", omega, k)
	}
	return col.Lift(old2new), true, nil
}
