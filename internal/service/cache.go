package service

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Sharded LRU result cache. Keys are canonical-instance hashes prefixed
// with the endpoint and portfolio (see cacheKey in service.go), values are
// canonical-space solutions (entry) that render back into any vertex
// numbering with the same canonical form. Sharding keeps lock contention
// off the hot path under concurrent traffic; each shard is an independent
// mutex + map + intrusive LRU list.

// entry is a cached solution in canonical vertex numbering. Entries are
// immutable once stored: readers render them without locks.
//
// The payloads are flat int32 arrays: an entry lives as long as the cache
// keeps it, so it holds no per-class slice headers and half-width ids.
type entry struct {
	// Coalescing classes, canonical ids: class i is
	// members[classOffs[i]:classOffs[i+1]], sorted, classes ordered by
	// smallest member; classOffs has one element more than there are
	// classes. Both are nil on entries without classes (allocate, spill).
	members   []int32
	classOffs []int32
	coloring  []int32 // per canonical vertex, nil when absent
	spilled   []int32 // canonical ids, sorted; nil when none spilled

	strategy        string
	coalescedMoves  int
	coalescedWeight int64
	remainingWeight int64
	colorable       bool
	spills          int
	spillCost       int64 // spill endpoint only
	optimal         bool  // spill endpoint only
	deadlineHit     bool
}

// numClasses reports how many coalescing classes e carries.
func (e *entry) numClasses() int {
	if len(e.classOffs) == 0 {
		return 0
	}
	return len(e.classOffs) - 1
}

// class returns class i's canonical members; callers must not modify it.
func (e *entry) class(i int) []int32 { return e.members[e.classOffs[i]:e.classOffs[i+1]] }

type cacheShard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recent; values are *cacheItem
	items map[string]*list.Element
}

type cacheItem struct {
	key string
	val *entry
}

// Cache is the sharded LRU.
type Cache struct {
	shards    []*cacheShard
	perShard  int
	evictions atomic.Int64
}

// NewCache builds a cache holding roughly capacity entries across shards
// (each shard holds capacity/shards, minimum 1). capacity <= 0 disables
// caching: Get always misses, Put is a no-op.
func NewCache(capacity, shards int) *Cache {
	if capacity <= 0 {
		return &Cache{}
	}
	if shards <= 0 {
		shards = 16
	}
	if shards > capacity {
		shards = capacity
	}
	per := capacity / shards
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]*cacheShard, shards), perShard: per}
	for i := range c.shards {
		c.shards[i] = &cacheShard{ll: list.New(), items: make(map[string]*list.Element)}
	}
	return c
}

func (c *Cache) shard(key string) *cacheShard {
	if len(c.shards) == 0 {
		return nil
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Get returns a copy of the cached solution for key, marking it most
// recently used. Returning the entry by value (not the internal *entry)
// keeps the cache's own record unreachable from callers: a renderer
// cannot swap fields on what later hits observe. The copy shares the
// entry's slice payloads, which are immutable once stored (see the entry
// doc); callers must treat them as read-only.
func (c *Cache) Get(key string) (entry, bool) {
	s := c.shard(key)
	if s == nil {
		return entry{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return entry{}, false
	}
	s.ll.MoveToFront(el)
	return *el.Value.(*cacheItem).val, true
}

// Put stores val under key, evicting the shard's least recently used
// entry when full. An entry computed to completion (deadlineHit false)
// replaces a deadline-truncated one, never the other way around: when two
// identical requests miss concurrently, the tight-deadline loser must not
// permanently shadow the complete answer.
func (c *Cache) Put(key string, val *entry) {
	s := c.shard(key)
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		item := el.Value.(*cacheItem)
		if !(val.deadlineHit && !item.val.deadlineHit) {
			item.val = val
		}
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheItem{key: key, val: val})
	for s.ll.Len() > c.perShard {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheItem).key)
		c.evictions.Add(1)
	}
}

// Keys returns every resident key, shard by shard, without touching LRU
// order. It is the enumeration side of the cluster's handoff protocol:
// on a topology change, the old owner walks its keys to find the entries
// whose hash ranges moved. The snapshot is per-shard consistent, not
// globally atomic — concurrent inserts may or may not appear, which is
// fine for a best-effort stream (a missed entry costs one future peer
// fill).
func (c *Cache) Keys() []string {
	out := make([]string, 0, c.Len())
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*cacheItem).key)
		}
		s.mu.Unlock()
	}
	return out
}

// Evictions reports how many entries the cache has evicted since start.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Len reports the total number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
