package graph

import (
	"math/bits"
	"sync"
)

// Pooled scratch arenas. The steady-state solve path (service portfolio
// racers, engine matrix columns, repeated IRC/spill/chordal runs) used to
// re-allocate the same worklists, degree arrays, and bitset masks on
// every run. An Arena hands those buffers out from size-classed free
// lists and is itself recycled through a sync.Pool, so a solver that
// acquires an arena, takes its scratch, and releases the arena performs
// zero heap allocations once the pool is warm for that graph size.
//
// Size classes are powers of two: a request for n elements is served from
// a buffer of capacity 2^ceil(log2 n), so graphs of similar sizes share
// classes and a warm arena serves any same-or-smaller instance without
// growing. Buffers are zeroed on every handout — callers always see an
// empty bitset / zeroed slice, exactly as if freshly made.
//
// Ownership rules:
//
//   - Buffers returned by an Arena are owned by that arena. They are
//     valid until the arena's Release (or Reset) and must not be retained
//     past it.
//   - An Arena is single-goroutine state, like the solver scratch it
//     backs; concurrent solvers each acquire their own.
//   - Release both reclaims every handed-out buffer and returns the
//     arena to the global pool.
//
// Solver state structs with a Reset(g)-style lifecycle (regalloc.IRC,
// spill.Scratch) own their buffers directly and use ReuseBits/ReuseSlice
// instead; the Arena serves call-shaped scratch (greedy elimination,
// chordal MCS, coalesce drivers) where threading a state struct through
// the API would be noise.

// numArenaClasses bounds the retained size classes: buffers above
// 2^(numArenaClasses-1) elements are allocated directly and not pooled —
// at that scale the allocation is not the cost that matters.
const numArenaClasses = 26

// arenaMem is one element type's size-classed free lists. bufs[c] holds
// every buffer of class c ever handed out by this arena; used[c] counts
// how many are currently out. Reset reclaims all of them at once by
// zeroing the counters — buffers are retained for the next run.
type arenaMem[T any] struct {
	bufs [numArenaClasses][][]T
	used [numArenaClasses]int
}

// arenaClass is the size class covering n elements.
func arenaClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// get returns a zeroed slice of length n backed by a class-sized buffer.
func (m *arenaMem[T]) get(n int) []T {
	c := arenaClass(n)
	if c >= numArenaClasses {
		return make([]T, n)
	}
	if m.used[c] < len(m.bufs[c]) {
		b := m.bufs[c][m.used[c]]
		m.used[c]++
		clear(b)
		return b[:n]
	}
	b := make([]T, 1<<c)
	m.bufs[c] = append(m.bufs[c], b)
	m.used[c]++
	return b[:n]
}

func (m *arenaMem[T]) reset() {
	for c := range m.used {
		m.used[c] = 0
	}
}

// Arena is a pooled scratch allocator for solver state: bitsets, vertex
// worklists, degree arrays, and flag arrays. See the package comment
// above for the ownership rules.
type Arena struct {
	u64   arenaMem[uint64]
	vs    arenaMem[V]
	ints  arenaMem[int]
	bools arenaMem[bool]
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena checks an arena out of the global pool. Pair with Release.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// Release reclaims every buffer handed out by the arena and returns it
// to the global pool. The arena and all its buffers must not be used
// afterwards.
func (a *Arena) Release() {
	a.Reset()
	arenaPool.Put(a)
}

// Reset reclaims every handed-out buffer without returning the arena to
// the pool — the between-rounds variant for loops that reuse one arena.
func (a *Arena) Reset() {
	a.u64.reset()
	a.vs.reset()
	a.ints.reset()
	a.bools.reset()
}

// Bits returns an empty bitset sized for vertex ids 0..n-1, like
// NewBits(n) but arena-backed.
func (a *Arena) Bits(n int) Bits { return Bits(a.u64.get(wordsFor(n))) }

// Vs returns an empty vertex slice with capacity at least n — worklist
// and stack scratch.
func (a *Arena) Vs(n int) []V { return a.vs.get(n)[:0] }

// Ints returns a zeroed []int of length n — degree and position arrays.
func (a *Arena) Ints(n int) []int { return a.ints.get(n) }

// Bools returns a zeroed []bool of length n — removed/pinned/visited
// flags.
func (a *Arena) Bools(n int) []bool { return a.bools.get(n) }

// ReuseBits returns an empty bitset sized for vertex ids 0..n-1, reusing
// b's storage when it is wide enough. This is the Reset(g)-style idiom
// for solver state that owns its buffers across runs (see Arena for the
// call-shaped variant).
func ReuseBits(b Bits, n int) Bits {
	w := wordsFor(n)
	if cap(b) < w {
		return NewBits(n)
	}
	b = b[:w]
	clear(b)
	return b
}

// ReuseSlice returns a zeroed slice of length n, reusing s's storage
// when its capacity allows. The companion of ReuseBits for []int, []bool
// and []V solver state. The result is never nil, even for n == 0.
func ReuseSlice[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ReuseRows truncates every row of a slice-of-slices to length zero and
// returns it resized to n rows, preserving per-row capacity — the reuse
// idiom for adjacency lists and per-vertex move lists.
func ReuseRows[T any](rows [][]T, n int) [][]T {
	if cap(rows) < n {
		rows = make([][]T, n)
		return rows
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}
