package service

import (
	"slices"
	"sort"

	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/regalloc"
	"regcoal/internal/spill"
)

// Entries live in canonical vertex numbering (internal/graph CanonicalForm)
// so one cached solution answers every request whose instance has the same
// canonical hash. Building an entry translates a request-space solution
// into canonical space; rendering translates it back through the
// requesting instance's own permutation. Every response — computed or
// cached — is rendered through the same path, which is what makes repeated
// requests byte-identical.

// coalesceEntry converts a strategy result into a canonical-space entry.
func coalesceEntry(f *graph.File, perm []graph.V, res *coalesce.Result, winner string, deadlineHit bool) *entry {
	e := &entry{
		strategy:        winner,
		coalescedMoves:  len(res.Coalesced),
		coalescedWeight: res.CoalescedWeight,
		remainingWeight: res.RemainingWeight,
		colorable:       res.Colorable,
		deadlineHit:     deadlineHit,
	}
	e.members, e.classOffs = canonClasses(res.P, perm)
	if res.Colorable {
		qb := graph.AcquireQuotientBuf()
		if q, old2new, err := qb.Build(f.G, res.P); err == nil {
			if qcol, ok := greedy.Color(q, f.K); ok {
				e.coloring = make([]int32, len(old2new))
				for v, qv := range old2new {
					e.coloring[perm[v]] = int32(qcol[qv])
				}
			}
		}
		qb.Release()
	}
	return e
}

// allocateEntry converts an allocator result into a canonical-space entry.
func allocateEntry(perm []graph.V, res *regalloc.Result, winner string, deadlineHit bool) *entry {
	e := &entry{
		strategy:        winner,
		coalescedWeight: res.CoalescedWeight,
		remainingWeight: res.RemainingWeight,
		spills:          len(res.Spilled),
		deadlineHit:     deadlineHit,
		coloring:        canonColoring(res.Coloring, perm),
		spilled:         canonSpilled(res.Spilled, perm),
	}
	return e
}

// spillEntry converts a spill plan into a canonical-space entry.
func spillEntry(perm []graph.V, plan *spill.Plan, winner string, deadlineHit bool) *entry {
	e := &entry{
		strategy:    winner,
		spills:      len(plan.Spilled),
		spillCost:   plan.Cost,
		optimal:     plan.Optimal,
		deadlineHit: deadlineHit,
		coloring:    canonColoring(plan.Coloring, perm),
		spilled:     canonSpilled(plan.Spilled, perm),
	}
	return e
}

// canonColoring moves a request-space coloring to canonical ids.
func canonColoring(col graph.Coloring, perm []graph.V) []int32 {
	out := make([]int32, len(col))
	for v, c := range col {
		out[perm[v]] = int32(c)
	}
	return out
}

// canonSpilled maps spilled vertices to canonical ids, sorted; nil when
// nothing spilled.
func canonSpilled(spilled, perm []graph.V) []int32 {
	var out []int32
	for _, v := range spilled {
		out = append(out, int32(perm[v]))
	}
	slices.Sort(out)
	return out
}

// canonClasses maps partition classes into canonical ids in the flat
// entry layout: each class sorted, classes ordered by smallest member.
// Rebuilding the partition over canonical ids makes Classes yield them
// in exactly that order.
func canonClasses(p *graph.Partition, perm []graph.V) (members, offs []int32) {
	cp := graph.NewPartition(len(perm))
	for v, c := range perm {
		cp.Union(c, perm[p.Find(graph.V(v))])
	}
	classes := cp.Classes()
	members = make([]int32, 0, len(perm))
	offs = make([]int32, 1, len(classes)+1)
	for _, cls := range classes {
		for _, c := range cls {
			members = append(members, int32(c))
		}
		offs = append(offs, int32(len(members)))
	}
	return members, offs
}

// renderCoalesce maps a canonical-space entry back into the requesting
// instance's numbering.
func renderCoalesce(f *graph.File, hash string, perm []graph.V, e *entry) *CoalesceResult {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	classes := make([][]int, 0, e.numClasses())
	for k := 0; k < e.numClasses(); k++ {
		cls := e.class(k)
		c := make([]int, len(cls))
		for i, cid := range cls {
			c[i] = inv[cid]
		}
		sort.Ints(c)
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	res := &CoalesceResult{
		Hash:            hash,
		Vertices:        f.G.N(),
		Edges:           f.G.E(),
		Moves:           f.G.NumAffinities(),
		K:               f.K,
		Strategy:        e.strategy,
		CoalescedMoves:  e.coalescedMoves,
		CoalescedWeight: e.coalescedWeight,
		RemainingWeight: e.remainingWeight,
		Colorable:       e.colorable,
		DeadlineHit:     e.deadlineHit,
		Classes:         classes,
	}
	if e.coloring != nil {
		res.Coloring = make([]int, f.G.N())
		for v := range res.Coloring {
			res.Coloring[v] = int(e.coloring[perm[v]])
		}
	}
	return res
}

// renderSpill maps a canonical-space spill entry back into the requesting
// instance's numbering.
func renderSpill(f *graph.File, hash string, perm []graph.V, e *entry) *SpillResult {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	res := &SpillResult{
		Hash:        hash,
		Vertices:    f.G.N(),
		Edges:       f.G.E(),
		Moves:       f.G.NumAffinities(),
		K:           f.K,
		Strategy:    e.strategy,
		Spills:      e.spills,
		SpillCost:   e.spillCost,
		Optimal:     e.optimal,
		DeadlineHit: e.deadlineHit,
	}
	res.Coloring = make([]int, f.G.N())
	for v := range res.Coloring {
		res.Coloring[v] = int(e.coloring[perm[v]])
	}
	for _, cid := range e.spilled {
		res.Spilled = append(res.Spilled, inv[cid])
	}
	sort.Ints(res.Spilled)
	return res
}

// renderAllocate is renderCoalesce for the allocator endpoint.
func renderAllocate(f *graph.File, hash string, perm []graph.V, e *entry) *AllocateResult {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	res := &AllocateResult{
		Hash:            hash,
		Vertices:        f.G.N(),
		Edges:           f.G.E(),
		Moves:           f.G.NumAffinities(),
		K:               f.K,
		Strategy:        e.strategy,
		Spills:          e.spills,
		CoalescedWeight: e.coalescedWeight,
		RemainingWeight: e.remainingWeight,
		DeadlineHit:     e.deadlineHit,
	}
	res.Coloring = make([]int, f.G.N())
	for v := range res.Coloring {
		res.Coloring[v] = int(e.coloring[perm[v]])
	}
	for _, cid := range e.spilled {
		res.Spilled = append(res.Spilled, inv[cid])
	}
	sort.Ints(res.Spilled)
	return res
}
