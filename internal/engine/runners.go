package engine

import (
	"context"
	"errors"

	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/regalloc"
	"regcoal/internal/spill"
	"regcoal/internal/strategy"
)

// RunStats is what a runner reports for one instance.
type RunStats struct {
	// CoalescedWeight / CoalescedMoves: affinity weight and count the run
	// eliminated. ResidualWeight is what remains.
	CoalescedWeight int64
	CoalescedMoves  int
	ResidualWeight  int64
	// GreedyAfter: the coalesced graph is greedy-k-colorable (for
	// allocators: the run finished without spills beyond the ones it
	// chose up front).
	GreedyAfter bool
	// Spills counts spilled vertices (allocator and spiller runners only).
	Spills int
	// Rounds counts driver iterations, when the strategy iterates.
	Rounds int
	// Skipped marks an instance the runner declined (with the reason),
	// e.g. exact search beyond its feasible envelope.
	Skipped    bool
	SkipReason string
}

// Runner is one column of the strategy matrix: a named evaluation of a
// coalescing instance. Run must be deterministic for a given instance,
// must not mutate the graph, and should honor ctx cancellation when its
// worst case is not polynomial.
type Runner struct {
	Name string
	Run  func(ctx context.Context, f *graph.File) (RunStats, error)
}

// The matrix column order is pinned: persisted benchmark trajectories
// key on it. Every name is the Column of one strategy-table entry.
var (
	// strategyColumns are the facade's coalescing strategies
	// (regcoal.Strategies), in its order.
	strategyColumns = []string{"aggressive", "briggs", "george", "briggs+george",
		"ext-george", "brute", "brute-sets", "optimistic"}
	// solverColumns follow them: the IRC allocator, the exact coalescing
	// search, the spillers, and the spill-then-coalesce pipeline.
	solverColumns = []string{"irc", "exact", "spill-greedy", "spill-inc", "spill-exact",
		"spill+briggs+george", "spill+optimistic"}
)

// coalesceStats maps a coalescing result onto the matrix's stat columns.
func coalesceStats(res *coalesce.Result, _ *graph.File) RunStats {
	return RunStats{
		CoalescedWeight: res.CoalescedWeight,
		CoalescedMoves:  len(res.Coalesced),
		ResidualWeight:  res.RemainingWeight,
		GreedyAfter:     res.Colorable,
		Rounds:          res.Rounds,
	}
}

// allocStats maps an allocation: a spill-first allocation is k-feasible
// by construction, so only spills beyond its up-front evictions count
// against GreedyAfter.
func allocStats(res *regalloc.Result, f *graph.File) RunStats {
	count, _ := res.Coloring.CoalescedMoves(f.G)
	return RunStats{
		CoalescedWeight: res.CoalescedWeight,
		CoalescedMoves:  count,
		ResidualWeight:  res.RemainingWeight,
		GreedyAfter:     len(res.Spilled) == res.Evicted,
		Spills:          len(res.Spilled),
		Rounds:          1,
	}
}

// spillStats maps a spill plan: spilling removes no moves by itself, so
// the whole affinity weight stays residual.
func spillStats(p *spill.Plan, f *graph.File) RunStats {
	return RunStats{
		ResidualWeight: f.G.TotalAffinityWeight(),
		GreedyAfter:    true,
		Spills:         len(p.Spilled),
		Rounds:         p.Rounds,
	}
}

// column adapts one strategy-table entry to a matrix column named name:
// a decline becomes a skipped record, any other error (including an
// anytime search's cancellation) a failed one.
func column[R any](name string, e *strategy.Entry[R], stats func(*R, *graph.File) RunStats) Runner {
	return Runner{
		Name: name,
		Run: func(ctx context.Context, f *graph.File) (RunStats, error) {
			res, err := e.Run(ctx, f.G, f.K)
			if errors.Is(err, strategy.ErrInapplicable) {
				return RunStats{Skipped: true, SkipReason: err.Error()}, nil
			}
			if err != nil {
				return RunStats{}, err
			}
			return stats(res, f), nil
		},
	}
}

// addColumns adds a column for every entry of t that declares one.
func addColumns[R any](dst map[string]Runner, t strategy.Table[R], stats func(*R, *graph.File) RunStats) {
	for _, e := range t {
		if e.Column != "" {
			dst[e.Column] = column(e.Column, e, stats)
		}
	}
}

// Columns returns the named matrix columns, in the given order; it
// panics on a name no strategy table declares.
func Columns(names ...string) []Runner {
	all := make(map[string]Runner)
	addColumns(all, coalesce.Strategies(), coalesceStats)
	addColumns(all, regalloc.Strategies(), allocStats)
	addColumns(all, spill.Strategies(), spillStats)
	out := make([]Runner, len(names))
	for i, n := range names {
		r, ok := all[n]
		if !ok {
			panic("engine: no strategy table declares matrix column " + n)
		}
		out[i] = r
	}
	return out
}

// CoalesceRunner adapts a coalescing strategy to a runner under its own
// name, whether or not it is a matrix column — how cmd/coalesce runs the
// off-matrix strategies (chordal-inc, vegdahl).
func CoalesceRunner(e *strategy.Entry[coalesce.Result]) Runner {
	return column(e.Name, e, coalesceStats)
}

// StrategyRunners returns the columns of the facade's coalescing
// strategies — the same names, order and semantics as regcoal.Run (the
// correspondence is pinned by TestMatrixMatchesFacade).
func StrategyRunners() []Runner { return Columns(strategyColumns...) }

// StandardMatrix is the full strategy matrix the benchmark drives: every
// regcoal strategy, the IRC allocator, the exact solver, the spill ×
// coalesce columns (spillers plus the spill-then-coalesce pipeline), and
// the session layer's incremental-vs-fresh differential pair.
func StandardMatrix() []Runner {
	m := Columns(append(strategyColumns[:len(strategyColumns):len(strategyColumns)], solverColumns...)...)
	return append(m, SessionRunners()...)
}

// MatrixNames lists runner names in order.
func MatrixNames(rs []Runner) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}
