package coalesce

// Zero-allocation gate for the word-parallel conservative tests: BriggsOK
// is probed once per (affinity, round) by every conservative driver and
// by IRC-style allocators, so it must not allocate at all — its
// neighborhood-union scan runs over the graph's own bitset rows. GeorgeOK
// rides along under the same gate. BruteOK and BruteSetOK, which rebuild
// the coalesced graph per probe, have their own gate below.

import (
	"math/rand"
	"testing"

	"regcoal/internal/graph"
)

func TestBriggsOKZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb1995))
	g := graph.RandomER(rng, 200, 0.2)
	k := 8
	// Probe a fixed spread of non-adjacent pairs, covering pass and fail.
	type pair struct{ x, y graph.V }
	var pairs []pair
	for x := graph.V(0); x < 40 && len(pairs) < 16; x++ {
		for y := x + 1; y < 200; y += 13 {
			if !g.HasEdge(x, y) {
				pairs = append(pairs, pair{x, y})
				break
			}
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no non-adjacent probe pairs in the gate instance")
	}
	sink := false
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range pairs {
			sink = BriggsOK(g, p.x, p.y, k) || sink
			sink = GeorgeOK(g, p.x, p.y, k) || sink
		}
	})
	_ = sink
	if graph.RaceEnabled {
		t.Skipf("race detector active, alloc count (%v) not asserted", allocs)
	}
	if allocs != 0 {
		t.Fatalf("BriggsOK/GeorgeOK allocate %v times per probe batch, want 0", allocs)
	}
}

// The brute-force test rebuilds the coalesced graph once per probed move;
// with the trial partition, the CanMerge scratch and the quotient all
// pooled, a probe must not allocate once the pools are warm.
func TestBruteOKZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb7))
	g := graph.RandomER(rng, 120, 0.1)
	graph.SprinkleAffinities(rng, g, 60, 100)
	k := 8
	p := graph.NewPartition(g.N())
	affs := g.Affinities()
	set := affs[:3]
	sink := false
	allocs := testing.AllocsPerRun(50, func() {
		for _, a := range affs {
			sink = BruteOK(g, p, a.X, a.Y, k) || sink
		}
		sink = BruteSetOK(g, p, set, k) || sink
	})
	_ = sink
	if graph.RaceEnabled {
		t.Skipf("race detector active, alloc count (%v) not asserted", allocs)
	}
	if allocs != 0 {
		t.Fatalf("BruteOK/BruteSetOK allocate %v times per probe batch, want 0", allocs)
	}
}
