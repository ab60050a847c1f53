package main

// The answer checker. It decides from the paper's definitions alone
// whether an answer is right, in the numbering of the request that was
// sent: relabeled requests are checked against the relabeled instance,
// delta-session answers against corpus.ApplyEditScript's reference graph.
// It keeps its own plain-list view of an instance and its own O(V+E)
// elimination loop, so it shares no code with the solvers it judges.

import (
	"encoding/json"
	"fmt"
)

// inst is the checker's view of one instance: plain lists in the
// numbering of the request.
type inst struct {
	n, k  int
	edges [][2]int
	moves []move
	pins  []int // pins[v] is v's precolor, or -1
	adj   [][]int
}

type move struct {
	x, y int
	w    int64
}

func newInst(n, k int, edges [][2]int, moves []move, pins map[int]int) *inst {
	in := &inst{n: n, k: k, edges: edges, moves: moves, pins: make([]int, n)}
	for v := range in.pins {
		in.pins[v] = -1
	}
	for v, c := range pins {
		in.pins[v] = c
	}
	in.adj = make([][]int, n)
	for _, e := range edges {
		in.adj[e[0]] = append(in.adj[e[0]], e[1])
		in.adj[e[1]] = append(in.adj[e[1]], e[0])
	}
	return in
}

func (in *inst) pinFree() bool {
	for _, c := range in.pins {
		if c >= 0 {
			return false
		}
	}
	return true
}

func (in *inst) totalWeight() int64 {
	var t int64
	for _, m := range in.moves {
		t += m.w
	}
	return t
}

// greedyColorable reports whether the graph on the vertices with
// keep[v] set (all vertices when keep is nil) is greedy-k-colorable:
// repeatedly removing a vertex of degree < k empties it. adj must hold
// no duplicate neighbors.
func greedyColorable(adj [][]int, keep []bool, k int) bool {
	n := len(adj)
	deg := make([]int, n)
	removed := make([]bool, n)
	var stack []int
	left := 0
	for v := 0; v < n; v++ {
		if keep != nil && !keep[v] {
			removed[v] = true
			continue
		}
		left++
	}
	// All degrees are counted before any vertex is removed: each removal
	// then lowers each remaining neighbor's degree exactly once.
	for v := 0; v < n; v++ {
		if removed[v] {
			continue
		}
		for _, w := range adj[v] {
			if !removed[w] {
				deg[v]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if !removed[v] && deg[v] < k {
			stack = append(stack, v)
			removed[v] = true
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		left--
		for _, w := range adj[v] {
			if removed[w] {
				continue
			}
			deg[w]--
			if deg[w] < k {
				stack = append(stack, w)
				removed[w] = true
			}
		}
	}
	return left == 0
}

// quotientAdj builds the merged graph of a coalescing: one vertex per
// class, an edge wherever two classes hold interfering vertices. Built
// with a marker array, so it is O(V+E) and free of duplicate edges.
func quotientAdj(in *inst, cls []int, nclasses int) [][]int {
	members := make([][]int, nclasses)
	for v, c := range cls {
		members[c] = append(members[c], v)
	}
	adj := make([][]int, nclasses)
	mark := make([]int, nclasses)
	for i := range mark {
		mark[i] = -1
	}
	for c, vs := range members {
		for _, v := range vs {
			for _, w := range in.adj[v] {
				d := cls[w]
				if d != c && mark[d] != c {
					mark[d] = c
					adj[c] = append(adj[c], d)
				}
			}
		}
	}
	return adj
}

// conservativeStrategies are the winners whose answers must keep a
// greedy-k-colorable input greedy-k-colorable (§4 of the paper).
var conservativeStrategies = map[string]bool{
	"briggs": true, "george": true, "briggs+george": true,
	"ext-george": true, "brute": true, "brute-sets": true,
}

// answer is the union of the coalesce, allocate and spill response
// fields the checker reads.
type answer struct {
	Vertices        int     `json:"vertices"`
	Edges           int     `json:"edges"`
	Moves           int     `json:"moves"`
	K               int     `json:"k"`
	Strategy        string  `json:"strategy"`
	CoalescedMoves  int     `json:"coalesced_moves"`
	CoalescedWeight int64   `json:"coalesced_weight"`
	RemainingWeight int64   `json:"remaining_weight"`
	Colorable       bool    `json:"colorable"`
	DeadlineHit     bool    `json:"deadline_hit"`
	Classes         [][]int `json:"classes"`
	Coloring        []int   `json:"coloring"`
	Spilled         []int   `json:"spilled"`
	Spills          int     `json:"spills"`
	SpillCost       int64   `json:"spill_cost"`
}

// verdict is what a checked answer contributes to the quality metrics.
type verdict struct {
	coalescedW, totalW int64 // coalesce and allocate answers
	spillCost          int64 // spill answers
	isSpill            bool
	deadlineHit        bool
}

// checkSolve checks a coalesce, allocate or spill answer body against
// the instance that was sent.
func checkSolve(kind string, in *inst, body []byte) (verdict, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return verdict{}, fmt.Errorf("decoding answer: %v", err)
	}
	if a.Vertices != in.n || a.Edges != len(in.edges) || a.Moves != len(in.moves) || a.K != in.k {
		return verdict{}, fmt.Errorf("answer describes %d vertices, %d edges, %d moves, k=%d; sent %d, %d, %d, k=%d",
			a.Vertices, a.Edges, a.Moves, a.K, in.n, len(in.edges), len(in.moves), in.k)
	}
	v := verdict{deadlineHit: a.DeadlineHit}
	var err error
	switch kind {
	case "coalesce":
		v.coalescedW, v.totalW, err = checkCoalesce(in, &a)
	case "allocate":
		v.coalescedW, v.totalW, err = checkAllocate(in, &a)
	case "spill":
		v.isSpill = true
		v.spillCost, err = checkSpill(in, &a)
	default:
		err = fmt.Errorf("unknown answer kind %q", kind)
	}
	return v, err
}

// classIDs checks that classes partition the vertices [0, n) and returns
// each vertex's class index.
func classIDs(n int, classes [][]int) ([]int, error) {
	cls := make([]int, n)
	for i := range cls {
		cls[i] = -1
	}
	for c, members := range classes {
		if len(members) == 0 {
			return nil, fmt.Errorf("class %d is empty", c)
		}
		for _, v := range members {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("class %d holds vertex %d outside [0,%d)", c, v, n)
			}
			if cls[v] >= 0 {
				return nil, fmt.Errorf("vertex %d is in classes %d and %d", v, cls[v], c)
			}
			cls[v] = c
		}
	}
	for v, c := range cls {
		if c < 0 {
			return nil, fmt.Errorf("vertex %d is in no class", v)
		}
	}
	return cls, nil
}

// interferenceFree checks that no class holds both ends of an edge.
func interferenceFree(in *inst, cls []int) error {
	for _, e := range in.edges {
		if cls[e[0]] == cls[e[1]] {
			return fmt.Errorf("class %d holds interfering vertices %d and %d", cls[e[0]], e[0], e[1])
		}
	}
	return nil
}

// checkColoring checks a register assignment: every vertex colored in
// [0, k) unless uncolored[v] (then it must read -1), interfering colored
// vertices differ, pins are kept.
func checkColoring(in *inst, col []int, uncolored []bool) error {
	if len(col) != in.n {
		return fmt.Errorf("coloring has %d entries for %d vertices", len(col), in.n)
	}
	for v, c := range col {
		if uncolored != nil && uncolored[v] {
			if c != -1 {
				return fmt.Errorf("spilled vertex %d holds register %d", v, c)
			}
			continue
		}
		if c < 0 || c >= in.k {
			return fmt.Errorf("vertex %d holds register %d outside [0,%d)", v, c, in.k)
		}
		if p := in.pins[v]; p >= 0 && c != p {
			return fmt.Errorf("vertex %d is pinned to %d but holds %d", v, p, c)
		}
	}
	for _, e := range in.edges {
		a, b := col[e[0]], col[e[1]]
		if a >= 0 && a == b {
			return fmt.Errorf("interfering vertices %d and %d share register %d", e[0], e[1], a)
		}
	}
	return nil
}

// spilledSet checks a spill list (sorted, distinct, in range, no pinned
// vertex) and returns it as a membership array.
func spilledSet(in *inst, spilled []int, reported int) ([]bool, error) {
	if reported != len(spilled) {
		return nil, fmt.Errorf("reports %d spills but lists %d", reported, len(spilled))
	}
	set := make([]bool, in.n)
	for i, v := range spilled {
		if v < 0 || v >= in.n {
			return nil, fmt.Errorf("spilled vertex %d outside [0,%d)", v, in.n)
		}
		if i > 0 && spilled[i-1] >= v {
			return nil, fmt.Errorf("spill list is not sorted and distinct at %d", v)
		}
		if in.pins[v] >= 0 {
			return nil, fmt.Errorf("pinned vertex %d was spilled", v)
		}
		set[v] = true
	}
	return set, nil
}

func checkCoalesce(in *inst, a *answer) (coalescedW, totalW int64, err error) {
	cls, err := classIDs(in.n, a.Classes)
	if err != nil {
		return 0, 0, err
	}
	if err := interferenceFree(in, cls); err != nil {
		return 0, 0, err
	}
	moves := 0
	for _, m := range in.moves {
		if cls[m.x] == cls[m.y] {
			coalescedW += m.w
			moves++
		}
	}
	totalW = in.totalWeight()
	if a.CoalescedMoves != moves || a.CoalescedWeight != coalescedW || a.RemainingWeight != totalW-coalescedW {
		return 0, 0, fmt.Errorf("reports %d moves / weight %d coalesced, %d remaining; classes give %d / %d, %d",
			a.CoalescedMoves, a.CoalescedWeight, a.RemainingWeight, moves, coalescedW, totalW-coalescedW)
	}
	if a.Colorable && a.Coloring == nil {
		return 0, 0, fmt.Errorf("colorable answer carries no coloring")
	}
	if a.Coloring != nil {
		if err := checkColoring(in, a.Coloring, nil); err != nil {
			return 0, 0, err
		}
		reg := make([]int, len(a.Classes))
		for i := range reg {
			reg[i] = -1
		}
		for v, c := range cls {
			if reg[c] == -1 {
				reg[c] = a.Coloring[v]
			} else if reg[c] != a.Coloring[v] {
				return 0, 0, fmt.Errorf("class %d holds registers %d and %d", c, reg[c], a.Coloring[v])
			}
		}
	}
	if conservativeStrategies[a.Strategy] && in.pinFree() && greedyColorable(in.adj, nil, in.k) &&
		!greedyColorable(quotientAdj(in, cls, len(a.Classes)), nil, in.k) {
		return 0, 0, fmt.Errorf("conservative winner %s left a greedy-%d-colorable graph not greedy-%d-colorable",
			a.Strategy, in.k, in.k)
	}
	return coalescedW, totalW, nil
}

func checkAllocate(in *inst, a *answer) (coalescedW, totalW int64, err error) {
	spilled, err := spilledSet(in, a.Spilled, a.Spills)
	if err != nil {
		return 0, 0, err
	}
	if err := checkColoring(in, a.Coloring, spilled); err != nil {
		return 0, 0, err
	}
	for _, m := range in.moves {
		if c := a.Coloring[m.x]; c >= 0 && c == a.Coloring[m.y] {
			coalescedW += m.w
		}
	}
	totalW = in.totalWeight()
	if a.CoalescedWeight != coalescedW || a.RemainingWeight != totalW-coalescedW {
		return 0, 0, fmt.Errorf("reports weight %d coalesced, %d remaining; registers give %d, %d",
			a.CoalescedWeight, a.RemainingWeight, coalescedW, totalW-coalescedW)
	}
	return coalescedW, totalW, nil
}

func checkSpill(in *inst, a *answer) (int64, error) {
	spilled, err := spilledSet(in, a.Spilled, a.Spills)
	if err != nil {
		return 0, err
	}
	if a.SpillCost != int64(len(a.Spilled)) {
		return 0, fmt.Errorf("reports spill cost %d for %d unit-cost spills", a.SpillCost, len(a.Spilled))
	}
	if err := checkColoring(in, a.Coloring, spilled); err != nil {
		return 0, err
	}
	if in.pinFree() {
		keep := make([]bool, in.n)
		for v := range keep {
			keep[v] = !spilled[v]
		}
		if !greedyColorable(in.adj, keep, in.k) {
			return 0, fmt.Errorf("residue after %d spills is not greedy-%d-colorable", len(a.Spilled), in.k)
		}
	}
	return a.SpillCost, nil
}

// deltaAnswer is the body of a delta-session create or delta response.
type deltaAnswer struct {
	SessionID string `json:"session_id"`
	BaseHash  string `json:"base_hash"`
	Version   int64  `json:"version"`
	Path      string `json:"path"`
	Closed    bool   `json:"closed"`
	Result    *struct {
		K               int     `json:"k"`
		Vertices        int     `json:"vertices"`
		NextVertex      int     `json:"next_vertex"`
		Colorable       bool    `json:"colorable"`
		CoalescedMoves  int     `json:"coalesced_moves"`
		CoalescedWeight int64   `json:"coalesced_weight"`
		RemainingMoves  int     `json:"remaining_moves"`
		RemainingWeight int64   `json:"remaining_weight"`
		Classes         [][]int `json:"classes"`
		Coloring        []int   `json:"coloring"`
	} `json:"result"`
}

// checkDelta checks a session answer at version `version`. ref is the
// reference instance (compacted, alive vertices renumbered densely in id
// order, as corpus.ApplyEditScript builds it) and alive lists the alive
// session ids in increasing order, so alive[i] is ref's vertex i.
func checkDelta(ref *inst, alive []int, idSpace int, version int64, body []byte) (deltaAnswer, error) {
	var a deltaAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("decoding delta answer: %v", err)
	}
	if a.Version != version {
		return a, fmt.Errorf("answer is at version %d, want %d", a.Version, version)
	}
	r := a.Result
	if r == nil {
		return a, fmt.Errorf("delta answer carries no result")
	}
	if r.K != ref.k || r.Vertices != len(alive) || r.NextVertex != idSpace {
		return a, fmt.Errorf("answer describes k=%d, %d alive, next id %d; reference has k=%d, %d alive, next id %d",
			r.K, r.Vertices, r.NextVertex, ref.k, len(alive), idSpace)
	}
	compact := make([]int, idSpace)
	for i := range compact {
		compact[i] = -1
	}
	for i, id := range alive {
		compact[id] = i
	}
	classes := make([][]int, len(r.Classes))
	for c, members := range r.Classes {
		classes[c] = make([]int, len(members))
		for j, id := range members {
			if id < 0 || id >= idSpace || compact[id] < 0 {
				return a, fmt.Errorf("class %d holds session id %d, which is not alive", c, id)
			}
			classes[c][j] = compact[id]
		}
	}
	cls, err := classIDs(ref.n, classes)
	if err != nil {
		return a, err
	}
	if err := interferenceFree(ref, cls); err != nil {
		return a, err
	}
	var coalescedW int64
	moves := 0
	for _, m := range ref.moves {
		if cls[m.x] == cls[m.y] {
			coalescedW += m.w
			moves++
		}
	}
	remW := ref.totalWeight() - coalescedW
	if r.CoalescedMoves != moves || r.CoalescedWeight != coalescedW ||
		r.RemainingMoves != len(ref.moves)-moves || r.RemainingWeight != remW {
		return a, fmt.Errorf("reports %d/%d moves coalesced/remaining, weight %d/%d; classes give %d/%d, %d/%d",
			r.CoalescedMoves, r.RemainingMoves, r.CoalescedWeight, r.RemainingWeight,
			moves, len(ref.moves)-moves, coalescedW, remW)
	}
	if r.Colorable && r.Coloring == nil {
		return a, fmt.Errorf("colorable answer carries no coloring")
	}
	if r.Coloring != nil {
		if len(r.Coloring) != idSpace {
			return a, fmt.Errorf("coloring has %d entries for %d session ids", len(r.Coloring), idSpace)
		}
		col := make([]int, ref.n)
		for id, c := range r.Coloring {
			if compact[id] < 0 {
				if c != -1 {
					return a, fmt.Errorf("dead session id %d holds register %d", id, c)
				}
				continue
			}
			col[compact[id]] = c
		}
		if err := checkColoring(ref, col, nil); err != nil {
			return a, err
		}
		reg := make([]int, len(classes))
		for i := range reg {
			reg[i] = -1
		}
		for v, c := range cls {
			if reg[c] == -1 {
				reg[c] = col[v]
			} else if reg[c] != col[v] {
				return a, fmt.Errorf("class %d holds registers %d and %d", c, reg[c], col[v])
			}
		}
	}
	return a, nil
}
