package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Differential test for the coalesced-graph kernel. refClasses and
// refQuotient are the original map-based implementations of
// Partition.Classes and Quotient (classes grouped through a map and
// sorted, edges inserted one by one with AddEdge, parallel affinities
// merged through a map), kept here as the reference the O(n) kernel and
// the pooled QuotientBuf must match exactly: same graph down to the
// unexported fields, same mapping, same error text.

func refClasses(p *Partition) [][]V {
	byRoot := make(map[V][]V)
	for i := range p.parent {
		r := p.Find(V(i))
		byRoot[r] = append(byRoot[r], V(i))
	}
	classes := make([][]V, 0, len(byRoot))
	for _, c := range byRoot {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return classes
}

func refQuotient(g *Graph, p *Partition) (*Graph, []V, error) {
	if p.N() != g.N() {
		return nil, nil, fmt.Errorf("graph: partition over %d vertices does not match graph with %d vertices", p.N(), g.N())
	}
	classes := refClasses(p)
	old2new := make([]V, g.N())
	q := New(len(classes))
	for i, class := range classes {
		for _, v := range class {
			old2new[v] = V(i)
		}
		q.names[i] = g.names[class[0]]
		for _, v := range class {
			c, ok := g.Precolored(v)
			if !ok {
				continue
			}
			if prev, seen := q.Precolored(V(i)); seen && prev != c {
				return nil, nil, fmt.Errorf("graph: class %v merges precolors %d and %d", class, prev, c)
			}
			q.SetPrecolored(V(i), c)
		}
	}
	for _, e := range g.Edges() {
		a, b := old2new[e[0]], old2new[e[1]]
		if a == b {
			return nil, nil, fmt.Errorf("graph: vertices %d and %d interfere but share a class", int(e[0]), int(e[1]))
		}
		q.AddEdge(a, b)
	}
	merged := make(map[[2]V]int64)
	for _, a := range g.affinities {
		x, y := old2new[a.X], old2new[a.Y]
		if x == y {
			continue // coalesced
		}
		if x > y {
			x, y = y, x
		}
		merged[[2]V{x, y}] += a.Weight
	}
	for pair, w := range merged {
		q.affinities = append(q.affinities, Affinity{X: pair[0], Y: pair[1], Weight: w})
	}
	SortAffinities(q.affinities)
	return q, old2new, nil
}

// randomQuotientCase draws a graph with names, precolors, parallel,
// self and zero-weight affinities, and a partition that is sometimes a
// valid coalescing and sometimes merges interfering or differently
// precolored vertices.
func randomQuotientCase(rng *rand.Rand) (*Graph, *Partition) {
	n := rng.Intn(40)
	g := RandomER(rng, n, rng.Float64()*0.4)
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			g.SetName(V(v), fmt.Sprintf("r%d", rng.Intn(100)))
		}
		if rng.Intn(6) == 0 {
			g.SetPrecolored(V(v), rng.Intn(3))
		}
	}
	if n > 0 {
		for i := rng.Intn(3 * n); i > 0; i-- {
			x, y := V(rng.Intn(n)), V(rng.Intn(n))
			g.AddAffinity(x, y, int64(rng.Intn(4)))
			if rng.Intn(4) == 0 {
				g.AddAffinity(y, x, int64(rng.Intn(4))) // parallel
			}
		}
	}
	p := NewPartition(n)
	valid := rng.Intn(2) == 0
	for i := rng.Intn(n + 1); i > 0; i-- {
		x, y := V(rng.Intn(n)), V(rng.Intn(n))
		if !valid || CanMerge(g, p, x, y) {
			p.Union(x, y)
		}
	}
	return g, p
}

func TestQuotientMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9f))
	var buf QuotientBuf // reused across every case, as the hot paths do
	errs := 0
	for i := 0; i < 3000; i++ {
		g, p := randomQuotientCase(rng)
		if got, want := p.Clone().Classes(), refClasses(p.Clone()); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Classes %v, reference %v", i, got, want)
		}
		wq, wm, werr := refQuotient(g, p.Clone())
		for _, build := range []struct {
			name string
			fn   func(*Graph, *Partition) (*Graph, []V, error)
		}{{"Quotient", Quotient}, {"QuotientBuf.Build", buf.Build}} {
			q, m, err := build.fn(g, p.Clone())
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("case %d: %s error %v, reference %v", i, build.name, err, werr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(m, wm) {
				t.Fatalf("case %d: %s mapping %v, reference %v", i, build.name, m, wm)
			}
			if !reflect.DeepEqual(q, wq) {
				t.Fatalf("case %d: %s graph\n%#v\nreference\n%#v", i, build.name, q, wq)
			}
			if err := q.Validate(); err != nil {
				t.Fatalf("case %d: %s: %v", i, build.name, err)
			}
		}
		if werr != nil {
			errs++
		}
	}
	if errs == 0 || errs == 3000 {
		t.Fatalf("%d of 3000 cases were invalid partitions; want a mix", errs)
	}
	// A mismatched partition is rejected before anything else.
	g := New(3)
	_, _, werr := refQuotient(g, NewPartition(2))
	if _, _, err := buf.Build(g, NewPartition(2)); fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("size mismatch error %v, reference %v", err, werr)
	}
}

// Appending to one class returned by Classes must not overwrite the next:
// the classes share one backing array, each capped at its length.
func TestClassesAreCapped(t *testing.T) {
	p := NewPartition(4)
	p.Union(0, 1)
	cs := p.Classes()
	_ = append(cs[0], 99)
	if cs[1][0] != 2 {
		t.Fatalf("append to class 0 overwrote class 1: %v", cs)
	}
}

// A graph built into a QuotientBuf may be mutated until the next Build;
// AddEdge must not write into the next adjacency row.
func TestQuotientBufGraphMutable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	var buf QuotientBuf
	q, _, err := buf.Build(g, NewPartition(4))
	if err != nil {
		t.Fatal(err)
	}
	q.AddEdge(0, 2)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	q, _, err = buf.Build(g, NewPartition(4))
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := refQuotient(g, NewPartition(4))
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("rebuild after mutation differs:\n%v\nwant\n%v", q, want)
	}
}

// BenchmarkQuotient builds G_f of a 256-vertex graph under a partition
// with about a third of its vertices merged — the brute-force test's
// per-probe cost. "alloc" is the caller-owned Quotient, "pooled" a
// reused QuotientBuf.
func BenchmarkQuotient(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := RandomER(rng, 256, 0.1)
	SprinkleAffinities(rng, g, 256, 100)
	p := MergeAll(g)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Quotient(g, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		buf := AcquireQuotientBuf()
		defer buf.Release()
		for i := 0; i < b.N; i++ {
			if _, _, err := buf.Build(g, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := refQuotient(g, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
