package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(4, 1) // one shard of 4 for deterministic eviction
	for i := 0; i < 6; i++ {
		c.Put(fmt.Sprintf("k%d", i), &entry{strategy: fmt.Sprintf("s%d", i)})
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	for _, gone := range []string{"k0", "k1"} {
		if _, ok := c.Get(gone); ok {
			t.Errorf("oldest key %s survived eviction", gone)
		}
	}
	for _, kept := range []string{"k2", "k3", "k4", "k5"} {
		if _, ok := c.Get(kept); !ok {
			t.Errorf("recent key %s evicted", kept)
		}
	}
}

func TestCacheGetRefreshesRecency(t *testing.T) {
	c := NewCache(2, 1)
	c.Put("a", &entry{})
	c.Put("b", &entry{})
	c.Get("a")           // a is now most recent
	c.Put("c", &entry{}) // evicts b
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used key evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used key survived")
	}
}

func TestCachePutReplaces(t *testing.T) {
	c := NewCache(8, 2)
	c.Put("k", &entry{strategy: "old"})
	c.Put("k", &entry{strategy: "new"})
	e, ok := c.Get("k")
	if !ok || e.strategy != "new" {
		t.Fatalf("got %+v, want replaced entry", e)
	}
	if c.Len() != 1 {
		t.Fatalf("replace grew the cache to %d", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1, 4)
	c.Put("k", &entry{})
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache has entries")
	}
}

// TestCacheGetReturnsCopy pins the immutability contract: Get hands back
// a copy of the entry record, so a caller mutating its fields cannot
// change what later hits observe.
func TestCacheGetReturnsCopy(t *testing.T) {
	c := NewCache(8, 1)
	c.Put("k", &entry{strategy: "winner", spills: 3})
	e1, ok := c.Get("k")
	if !ok {
		t.Fatal("miss")
	}
	e1.strategy = "tampered"
	e1.spills = 99
	e2, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after tamper")
	}
	if e2.strategy != "winner" || e2.spills != 3 {
		t.Fatalf("cache record mutated through a Get copy: %+v", e2)
	}
}

// TestCacheConcurrentStress hammers Get/Put/eviction from many
// goroutines over a keyspace larger than the capacity, so every
// operation type races every other (run under -race in CI). Every hit
// must return an internally consistent entry: strategy and spills are
// written as a matched pair and must be observed as one.
func TestCacheConcurrentStress(t *testing.T) {
	c := NewCache(32, 4) // small: constant eviction pressure
	const (
		workers = 8
		ops     = 2000
		keys    = 128
	)
	var wg sync.WaitGroup
	torn := make(chan string, workers) // first torn read per worker
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				key := fmt.Sprintf("k%d", k)
				switch rng.Intn(3) {
				case 0:
					c.Put(key, &entry{strategy: fmt.Sprintf("s%d", k), spills: k})
				case 1:
					if e, ok := c.Get(key); ok {
						if e.strategy != fmt.Sprintf("s%d", k) || e.spills != k {
							select {
							case torn <- fmt.Sprintf("key %s got %+v", key, e):
							default:
							}
							return
						}
					}
				default:
					c.Len()
				}
			}
		}()
	}
	wg.Wait()
	close(torn)
	for msg := range torn {
		t.Errorf("torn read: %s", msg)
	}
	if c.Len() > 32 {
		t.Fatalf("cache overflowed capacity: %d", c.Len())
	}
}

// The peer wire format of a cache entry is fixed: a seeded entry must
// serve exactly the bytes its source peer sent, and CacheSeed keeps
// exact-size copies rather than the decoder's append slack.
func TestCacheWireRoundTrip(t *testing.T) {
	const wire = `{"classes":[[0,3],[1],[2,4,5]],"coloring":[0,1,2,0,1,1],"spilled":[4],"strategy":"brute","coalesced_moves":3,"coalesced_weight":7,"remaining_weight":2,"colorable":true,"spills":1,"spill_cost":5,"optimal":true,"deadline_hit":true}`
	src, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	e := &entry{
		members:   []int32{0, 3, 1, 2, 4, 5},
		classOffs: []int32{0, 2, 3, 6},
		coloring:  []int32{0, 1, 2, 0, 1, 1},
		spilled:   []int32{4},
		strategy:  "brute", coalescedMoves: 3, coalescedWeight: 7, remainingWeight: 2,
		colorable: true, spills: 1, spillCost: 5, optimal: true, deadlineHit: true,
	}
	src.cache.Put("k", e)
	got, ok := src.CachePeek("k")
	if !ok || string(got) != wire {
		t.Fatalf("CachePeek = %s, want %s", got, wire)
	}

	dst, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.CacheSeed("k", []byte(wire)); err != nil {
		t.Fatal(err)
	}
	if got, _ := dst.CachePeek("k"); string(got) != wire {
		t.Fatalf("seeded entry serves %s, want %s", got, wire)
	}
	seeded, _ := dst.cache.Get("k")
	for name, s := range map[string][]int32{"members": seeded.members, "classOffs": seeded.classOffs, "coloring": seeded.coloring, "spilled": seeded.spilled} {
		if cap(s) != len(s) {
			t.Errorf("seeded %s has len %d cap %d, want exact size", name, len(s), cap(s))
		}
	}

	// Entries without classes or coloring omit them on the wire and stay
	// nil once seeded, so renderCoalesce still tells "no coloring" apart.
	const bare = `{"strategy":"aggressive"}`
	if err := dst.CacheSeed("b", []byte(bare)); err != nil {
		t.Fatal(err)
	}
	if b, _ := dst.cache.Get("b"); b.coloring != nil || b.classOffs != nil {
		t.Fatalf("bare entry seeded with coloring %v classOffs %v, want nil", b.coloring, b.classOffs)
	}
	if got, _ := dst.CachePeek("b"); string(got) != bare {
		t.Fatalf("bare entry serves %s, want %s", got, bare)
	}
}
