package graph

import (
	"fmt"
	mbits "math/bits"
	"sync"
)

// Quotient builds the coalesced graph G_f of the paper: the quotient of g by
// the partition p. Each class of p becomes a single vertex; there is an
// interference edge between two classes iff some pair of their members
// interferes in g.
//
// Quotient returns an error if p is not a coalescing of g, i.e. if some
// class contains two interfering vertices (the quotient would have a
// self-loop) or two vertices precolored differently.
//
// The second result maps each vertex of g to its vertex in the quotient.
// Affinities are carried over: an affinity internal to a class disappears
// (it is coalesced); the others are re-attached to the class vertices, with
// parallel affinities merged by weight. Precoloring is carried to the class
// vertex. Class vertices are named after their smallest member's name.
//
// The result is freshly allocated and owned by the caller. Callers that
// only read G_f and throw it away should build into a pooled QuotientBuf
// instead.
func Quotient(g *Graph, p *Partition) (*Graph, []V, error) {
	return new(QuotientBuf).Build(g, p)
}

// QuotientBuf is reusable storage for building coalesced graphs. The
// conservative tests and de-coalescing loops ask "is G_f still
// greedy-k-colorable?" once per probed move; building each G_f into the
// same buffer makes those asks allocation-free once the buffer has grown
// to the instance's size.
//
// A graph and mapping returned by Build alias the buffer: they are valid
// only until the next Build on the same buffer or its Release. Callers
// may mutate the graph in that window (AddEdge reallocates the touched
// adjacency rows, never the buffer's shared ones). A QuotientBuf is
// single-goroutine state.
type QuotientBuf struct {
	q       *Graph
	old2new []V
	offs    []int
	members []V
	scratch []V
	nbr     []V
	affs    []Affinity
}

var quotientPool = sync.Pool{New: func() any { return new(QuotientBuf) }}

// AcquireQuotientBuf checks a buffer out of the global pool. Pair with
// Release.
func AcquireQuotientBuf() *QuotientBuf { return quotientPool.Get().(*QuotientBuf) }

// Release returns the buffer to the global pool. Neither the buffer nor
// any graph or mapping it built may be used afterwards.
func (b *QuotientBuf) Release() { quotientPool.Put(b) }

// Build is Quotient into b's storage; see QuotientBuf for how long the
// results stay valid. Output and errors are exactly Quotient's.
func (b *QuotientBuf) Build(g *Graph, p *Partition) (*Graph, []V, error) {
	if p.N() != g.N() {
		return nil, nil, fmt.Errorf("graph: partition over %d vertices does not match graph with %d vertices", p.N(), g.N())
	}
	n := g.n
	b.old2new = ReuseSlice(b.old2new, n)
	b.members = ReuseSlice(b.members, n)
	b.scratch = ReuseSlice(b.scratch, n)
	b.offs = p.classify(b.old2new, b.members, b.scratch, b.offs)
	nc := len(b.offs) - 1
	old2new := b.old2new

	if b.q == nil {
		b.q = new(Graph)
	}
	q := b.q
	q.n = nc
	q.stride = wordsFor(nc)
	q.bits = ReuseSlice(q.bits, nc*q.stride)
	q.nbr = ReuseSlice(q.nbr, nc)
	q.names = ReuseSlice(q.names, nc)
	q.precolored = ReuseSlice(q.precolored, nc)
	q.affinities = nil
	q.edges = 0
	q.frozen = false

	for c := 0; c < nc; c++ {
		class := b.members[b.offs[c]:b.offs[c+1]]
		q.names[c] = g.names[class[0]]
		q.precolored[c] = NoColor
		for _, v := range class {
			pc := g.precolored[v]
			if pc == NoColor {
				continue
			}
			if prev := q.precolored[c]; prev != NoColor && prev != pc {
				return nil, nil, fmt.Errorf("graph: class %v merges precolors %d and %d", append([]V(nil), class...), prev, pc)
			}
			q.precolored[c] = pc
		}
	}

	// Mark every half-edge in its class row. Both halves of an edge are
	// visited, so the rows come out symmetric. The first same-class pair
	// met this way is the first in Edges order: vertices are scanned in
	// increasing order, so a pair (w, u) with w < u is met from w first.
	for u := 0; u < n; u++ {
		a := old2new[u]
		row := q.bits[int(a)*q.stride:]
		for _, w := range g.nbr[u] {
			c := old2new[w]
			if c == a {
				return nil, nil, fmt.Errorf("graph: vertices %d and %d interfere but share a class", u, int(w))
			}
			row[c>>6] |= 1 << (uint(c) & 63)
		}
	}

	// Scan each row into its adjacency list: increasing bit order is
	// sorted order. The lists share one backing array, each capped at its
	// own length.
	total := 0
	for c := 0; c < nc; c++ {
		total += Bits(q.row(V(c))).Count()
	}
	if cap(b.nbr) < total {
		b.nbr = make([]V, total)
	}
	buf := b.nbr[:total]
	off := 0
	for c := 0; c < nc; c++ {
		start := off
		for i, w := range q.row(V(c)) {
			for w != 0 {
				buf[off] = V(i<<6 + mbits.TrailingZeros64(w))
				off++
				w &= w - 1
			}
		}
		if off > start {
			q.nbr[c] = buf[start:off:off]
		}
	}
	q.edges = total / 2

	// Re-attach the affinities that cross classes and merge parallel ones:
	// sort by endpoints, then sum each run.
	affs := b.affs[:0]
	for _, a := range g.affinities {
		x, y := old2new[a.X], old2new[a.Y]
		if x == y {
			continue // coalesced
		}
		if x > y {
			x, y = y, x
		}
		affs = append(affs, Affinity{X: x, Y: y, Weight: a.Weight})
	}
	b.affs = affs
	if len(affs) > 0 {
		SortAffinities(affs)
		m := 0
		for _, a := range affs {
			if m > 0 && affs[m-1].X == a.X && affs[m-1].Y == a.Y {
				affs[m-1].Weight += a.Weight
				continue
			}
			affs[m] = a
			m++
		}
		q.affinities = affs[:m:m]
	}
	return q, old2new, nil
}

// CanMerge reports whether u and v can be put in the same class of a
// coalescing of g extending p: their classes must contain no interfering
// pair and no conflicting precoloring. It does not modify p.
func CanMerge(g *Graph, p *Partition, u, v V) bool {
	ru, rv := p.Find(u), p.Find(v)
	if ru == rv {
		return true
	}
	// Collect both classes into arena scratch: one O(n) walk, no heap
	// traffic once the arena pool is warm.
	ar := GetArena()
	defer ar.Release()
	cu, cv := ar.Vs(g.N()), ar.Vs(g.N())
	for i := 0; i < g.N(); i++ {
		switch p.Find(V(i)) {
		case ru:
			cu = append(cu, V(i))
		case rv:
			cv = append(cv, V(i))
		}
	}
	var colorU, colorV = NoColor, NoColor
	for _, x := range cu {
		if c, ok := g.Precolored(x); ok {
			colorU = c
		}
	}
	for _, y := range cv {
		if c, ok := g.Precolored(y); ok {
			colorV = c
		}
	}
	if colorU != NoColor && colorV != NoColor && colorU != colorV {
		return false
	}
	for _, x := range cu {
		for _, y := range cv {
			if g.HasEdge(x, y) {
				return false
			}
		}
	}
	return true
}

// MergeAll unions, in order, every affinity pair of g that CanMerge accepts,
// and returns the resulting partition. This is the classic aggressive
// coalescing sweep (Chaitin); it is a heuristic for the paper's
// NP-complete aggressive coalescing problem — the order of the affinity list
// determines which moves survive when interferences conflict.
func MergeAll(g *Graph) *Partition {
	p := NewPartition(g.N())
	for _, a := range g.Affinities() {
		if CanMerge(g, p, a.X, a.Y) {
			p.Union(a.X, a.Y)
		}
	}
	return p
}
