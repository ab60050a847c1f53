// Package regalloc glues the substrates into Chaitin-style register
// allocators — the "natural habitat" of the paper's coalescing problems.
//
// Two entry points:
//
//   - Allocate colors an interference graph with k colors after a chosen
//     coalescing strategy, Briggs-style optimistic select (potential spills
//     are pushed and may still color), reporting actual spills;
//   - Function drives the full loop on a lowered ir.Func: build the
//     interference graph, coalesce, color; on actual spills, rewrite the
//     code (spill everywhere) and retry — Chaitin's rebuild loop.
package regalloc

import (
	"fmt"

	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/ir"
	"regcoal/internal/ssa"
)

// Mode selects the coalescing strategy of an allocation.
type Mode int

const (
	// ModeNone performs no coalescing (baseline).
	ModeNone Mode = iota
	// ModeConservative uses Briggs + George conservative coalescing.
	ModeConservative
	// ModeBrute uses the brute-force conservative test.
	ModeBrute
	// ModeOptimistic uses aggressive coalescing with de-coalescing.
	ModeOptimistic
	// ModeAggressive coalesces regardless of colorability (may spill more).
	ModeAggressive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeConservative:
		return "briggs+george"
	case ModeBrute:
		return "brute"
	case ModeOptimistic:
		return "optimistic"
	case ModeAggressive:
		return "aggressive"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Result reports one graph-level allocation.
type Result struct {
	// Coloring of the original graph's vertices (NoColor for spilled).
	Coloring graph.Coloring
	// Spilled lists original vertices whose class failed to color.
	Spilled []graph.V
	// Evicted counts the leading Spilled entries a spill-first
	// allocation chose up front (AllocateSpillFirst); the rest, if any,
	// failed to color.
	Evicted int
	// CoalescedWeight is the total weight of moves whose endpoints ended
	// with equal colors; RemainingWeight the rest (spilled endpoints count
	// as remaining).
	CoalescedWeight, RemainingWeight int64
}

// runCoalescing returns the partition for the chosen mode.
func runCoalescing(g *graph.Graph, k int, mode Mode) *graph.Partition {
	switch mode {
	case ModeConservative:
		return coalesce.Conservative(g, k, coalesce.TestBriggsGeorge).P
	case ModeBrute:
		return coalesce.Conservative(g, k, coalesce.TestBrute).P
	case ModeOptimistic:
		return coalesce.Optimistic(g, k).P
	case ModeAggressive:
		return coalesce.Aggressive(g, k).P
	default:
		return graph.NewPartition(g.N())
	}
}

// Allocate coalesces and colors g with k colors. Potential spills are
// optimistic (Briggs): they are pushed anyway and often still color.
func Allocate(g *graph.Graph, k int, mode Mode) (*Result, error) {
	p := runCoalescing(g, k, mode)
	qb := graph.AcquireQuotientBuf()
	defer qb.Release()
	q, old2new, err := qb.Build(g, p)
	if err != nil {
		return nil, fmt.Errorf("regalloc: coalescing produced invalid partition: %w", err)
	}
	qcol, spilledQ := greedy.OptimisticColor(q, k)
	res := &Result{Coloring: qcol.Lift(old2new)}
	spilled := make(map[graph.V]bool, len(spilledQ))
	for _, v := range spilledQ {
		spilled[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if spilled[old2new[v]] {
			res.Spilled = append(res.Spilled, graph.V(v))
		}
	}
	for _, a := range g.Affinities() {
		if res.Coloring[a.X] != graph.NoColor && res.Coloring[a.X] == res.Coloring[a.Y] {
			res.CoalescedWeight += a.Weight
		} else {
			res.RemainingWeight += a.Weight
		}
	}
	return res, nil
}

// AllocateIRC runs the full iterated-register-coalescing allocator on g —
// the worklist-driven George–Appel formulation (see irc.go) — and adapts
// its result to the Allocate shape.
func AllocateIRC(g *graph.Graph, k int) (*Result, error) {
	a := AcquireIRC(g, k)
	irc := a.Run()
	a.Release()
	if err := irc.Check(g, k); err != nil {
		return nil, err
	}
	res := &Result{Coloring: irc.Coloring, Spilled: irc.Spilled}
	for _, a := range g.Affinities() {
		if res.Coloring[a.X] != graph.NoColor && res.Coloring[a.X] == res.Coloring[a.Y] {
			res.CoalescedWeight += a.Weight
		} else {
			res.RemainingWeight += a.Weight
		}
	}
	return res, nil
}

// FunctionResult reports an end-to-end allocation of a lowered function.
type FunctionResult struct {
	// F is the final rewritten function (with spill code).
	F *ir.Func
	// Coloring maps the final function's registers to colors.
	Coloring graph.Coloring
	// Rounds counts build–color–spill iterations.
	Rounds int
	// SpilledRegs counts registers sent to memory across all rounds.
	SpilledRegs int
	// MovesKept counts move instructions whose endpoints got different
	// colors (the moves coalescing failed to remove); MovesRemoved counts
	// the coalesced ones.
	MovesKept, MovesRemoved int
}

// Function allocates a φ-free function with k registers, rebuilding after
// spills, Chaitin-style.
func Function(f *ir.Func, k int, mode Mode) (*FunctionResult, error) {
	work := f.Clone()
	const maxRounds = 40
	for round := 1; round <= maxRounds; round++ {
		g, _ := ssa.BuildInterference(work)
		res, err := Allocate(g, k, mode)
		if err != nil {
			return nil, err
		}
		if len(res.Spilled) > 0 {
			slot := round * 1000 // distinct slot space per round
			for i, v := range res.Spilled {
				ssa.SpillEverywhere(work, ir.Reg(v), slot+i)
			}
			continue
		}
		out := &FunctionResult{F: work, Coloring: res.Coloring, Rounds: round}
		for _, b := range work.Blocks {
			for _, ins := range b.Instrs {
				if ins.Op != ir.OpMove {
					continue
				}
				if res.Coloring[ins.Dst] == res.Coloring[ins.Args[0]] {
					out.MovesRemoved++
				} else {
					out.MovesKept++
				}
			}
		}
		// Count spills by counting distinct store slots.
		slots := map[int]bool{}
		for _, b := range work.Blocks {
			for _, ins := range b.Instrs {
				if ins.Op == ir.OpStore {
					slots[ins.Slot] = true
				}
			}
		}
		out.SpilledRegs = len(slots)
		if err := checkAssignment(work, res.Coloring, k); err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, fmt.Errorf("regalloc: no fixpoint after %d rounds (k=%d too small?)", maxRounds, k)
}

// checkAssignment verifies a coloring against the function's interference
// graph: every register colored within range and no interfering pair
// sharing a color.
func checkAssignment(f *ir.Func, col graph.Coloring, k int) error {
	g, _ := ssa.BuildInterference(f)
	for v := 0; v < g.N(); v++ {
		if col[v] == graph.NoColor {
			// Unused registers may stay uncolored; only fail if v appears
			// in the code.
			if g.Degree(graph.V(v)) > 0 {
				return fmt.Errorf("regalloc: live register %s uncolored", f.RegName(ir.Reg(v)))
			}
			continue
		}
		if col[v] >= k {
			return fmt.Errorf("regalloc: register %s got color %d >= k=%d", f.RegName(ir.Reg(v)), col[v], k)
		}
	}
	for _, e := range g.Edges() {
		if col[e[0]] != graph.NoColor && col[e[0]] == col[e[1]] {
			return fmt.Errorf("regalloc: interfering %s and %s share color %d",
				f.RegName(ir.Reg(e[0])), f.RegName(ir.Reg(e[1])), col[e[0]])
		}
	}
	return nil
}
