package coalesce

import (
	"context"
	"errors"
	"testing"

	"regcoal/internal/graph"
	"regcoal/internal/strategy"
)

func TestRegistryCoreMatchesPinnedMatrix(t *testing.T) {
	want := []string{
		"aggressive", "briggs", "george", "briggs+george",
		"ext-george", "brute", "brute-sets", "optimistic", "exact",
	}
	var core []string
	for _, s := range Strategies() {
		if s.Column != "" {
			core = append(core, s.Column)
		}
	}
	if len(core) != len(want) {
		t.Fatalf("matrix columns: got %v, want %v", core, want)
	}
	for i, name := range core {
		if name != want[i] {
			t.Errorf("column[%d] = %q, want %q (order is pinned by benchmark trajectories)", i, name, want[i])
		}
	}
}

func TestRegistryLookupAndRun(t *testing.T) {
	f, err := graph.ParseString("k 2\nnode a\nnode b\nnode c\nedge a b\nedge b c\nmove a c 5\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Strategies().Names() {
		s, ok := LookupStrategy(name)
		if !ok {
			t.Fatalf("the table lists %q but LookupStrategy misses it", name)
		}
		res, err := s.Run(context.Background(), f.G, f.K)
		if errors.Is(err, strategy.ErrInapplicable) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res == nil || res.P == nil {
			t.Fatalf("%s: nil result", name)
		}
		if res.P.N() != f.G.N() {
			t.Fatalf("%s: partition over %d vertices, want %d", name, res.P.N(), f.G.N())
		}
	}
	if _, ok := LookupStrategy("no-such-strategy"); ok {
		t.Fatal("lookup of unknown strategy succeeded")
	}
}

// The path a–b–c with move (a,c) is the canonical coalescable instance:
// every conservative strategy must coalesce it with k=2.
func TestRegistryConservativeCoalescesPath(t *testing.T) {
	f, err := graph.ParseString("k 2\nnode a\nnode b\nnode c\nedge a b\nedge b c\nmove a c 5\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"briggs", "george", "brute", "optimistic"} {
		s, _ := LookupStrategy(name)
		res, err := s.Run(context.Background(), f.G, f.K)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CoalescedWeight != 5 || !res.Colorable {
			t.Errorf("%s: coalesced weight %d colorable=%v, want 5/true", name, res.CoalescedWeight, res.Colorable)
		}
	}
}
