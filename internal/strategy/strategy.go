// Package strategy is the shape of the solver strategy tables. Each
// result kind declares one static, ordered table next to its result type
// and comparator — coalesce.Strategies, regalloc.Strategies and
// spill.Strategies — and every consumer derives from those tables alone:
// the regcoal facade, the benchmark matrix columns (engine), the online
// service's racers and request validation, the session layer's member
// set, and cmd/coalesce's strategy selection. A name therefore means the
// same code wherever it appears.
package strategy

import (
	"context"
	"errors"
	"fmt"

	"regcoal/internal/graph"
)

// ErrInapplicable is returned by a strategy that declines an instance
// (e.g. the chordal-incremental driver on a non-chordal graph, or an
// exact search outside its envelope). Races treat it as "no answer from
// this member", the benchmark matrix as a skipped run.
var ErrInapplicable = errors.New("strategy inapplicable to this instance")

// Decline returns an error that matches ErrInapplicable and reads as the
// formatted reason alone, for declines whose reason is reported verbatim
// (the matrix records it as the skip reason).
func Decline(format string, args ...any) error {
	return declined(fmt.Sprintf(format, args...))
}

type declined string

func (d declined) Error() string        { return string(d) }
func (d declined) Is(target error) bool { return target == ErrInapplicable }

// Entry is one strategy of a kind's table.
type Entry[R any] struct {
	// Name identifies the strategy in flags, API requests, race winners
	// and metric labels.
	Name string
	// Column is the strategy's benchmark matrix column name, unique
	// across kinds; empty when the strategy is not a matrix column.
	Column string
	// Run evaluates the strategy. It must not mutate g, must be
	// deterministic given (g, k), and should poll ctx when its worst case
	// is super-polynomial. It declines with an error matching
	// ErrInapplicable. An anytime search cut off by ctx returns its best
	// answer so far, together with ctx's error where a cut-off answer
	// must not pass for a finished one (coalesce's exact): a race keeps
	// the answer, the matrix records the error.
	Run func(ctx context.Context, g *graph.Graph, k int) (*R, error)
	// Redundant, when set, reports instances on which the strategy can
	// only repeat another member's answer (and so never win a race's
	// tie-break): a race declines it there instead of spending a worker,
	// a matrix column runs it regardless.
	Redundant func(g *graph.Graph, k int) bool
}

// Table is a kind's strategy table in presentation order, which is also
// the race order (and so the tie-break order) when a request names no
// members.
type Table[R any] []*Entry[R]

// Lookup finds an entry by name.
func (t Table[R]) Lookup(name string) (*Entry[R], bool) {
	for _, e := range t {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// Names lists the entry names in table order.
func (t Table[R]) Names() []string {
	out := make([]string, len(t))
	for i, e := range t {
		out[i] = e.Name
	}
	return out
}
