package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/regalloc"
	"regcoal/internal/spill"
	"regcoal/internal/strategy"
)

// Deadline-raced strategy portfolio. Every interesting coalescing variant
// is NP-complete (the paper's Theorems 2–6), so the service never bets a
// request on one solver: it races a portfolio — cheap conservative
// heuristics, optimistic coalescing, the polynomial chordal algorithm
// where applicable, and the context-cancelable exact solver as an anytime
// upper bound — and returns the best answer on hand when the deadline
// fires. Pure polynomial heuristics run to completion regardless (they
// are the "best heuristic result" a deadline-exceeded request still
// gets); the exact search stops at the deadline and contributes the best
// coalescing found so far.

// racer is one portfolio member.
type racer[T any] struct {
	name string
	run  func(ctx context.Context) (T, error)
}

// race runs every member concurrently and returns the best answer by cmp
// (positive = first argument better; ties keep the earlier member, so a
// completed race is deterministic). It returns as soon as either every
// member finished, or the deadline fired and at least one answer exists.
// Members returning strategy.ErrInapplicable are skipped.
//
// When tr is non-nil the full race timeline is recorded onto it: each
// member's start and finish (or the cut-off time for members still
// running when the race returned), its disposition, and the winner. All
// trace writes happen on this goroutine — member goroutines report their
// finish times through the outcome channel relative to a race-local
// base, so a straggler finishing after the race returned (and after the
// trace went back to its pool) never touches the trace.
func race[T any](ctx context.Context, members []racer[T], cmp func(a, b T) int, tr *obs.Trace) (best T, winner string, bestIdx int, deadlineHit bool, err error) {
	type outcome struct {
		idx   int
		val   T
		err   error
		endNS int64 // offset from base, reported by the member itself
	}
	base := time.Now()
	ch := make(chan outcome, len(members))
	for i, m := range members {
		i, m := i, m
		go func() {
			var v T
			var err error
			// The strategy label stacks on the solve goroutine's
			// endpoint/family labels (goroutines inherit their parent's
			// label set), so profiles slice by strategy within endpoint.
			pprof.Do(ctx, pprof.Labels("regcoal_strategy", m.name), func(ctx context.Context) {
				v, err = m.run(ctx)
			})
			ch <- outcome{idx: i, val: v, err: err, endNS: int64(time.Since(base))}
		}()
	}
	var ends []int64
	var errs []error
	if tr != nil {
		ends = make([]int64, len(members))
		errs = make([]error, len(members))
		for i := range ends {
			ends[i] = -1 // not yet finished
		}
	}
	bestIdx = -1
	got := 0
	deadline := false
	var firstErr error
	take := func(o outcome) {
		got++
		if tr != nil {
			ends[o.idx] = o.endNS
			errs[o.idx] = o.err
		}
		if o.err != nil {
			if !errors.Is(o.err, strategy.ErrInapplicable) && firstErr == nil {
				firstErr = o.err
			}
			return
		}
		if bestIdx == -1 || cmp(o.val, best) > 0 || (cmp(o.val, best) == 0 && o.idx < bestIdx) {
			best, bestIdx = o.val, o.idx
		}
	}
	// drain consumes every already-buffered outcome without blocking, so
	// a member that finished just before the deadline is never discarded.
	drain := func() {
		for got < len(members) {
			select {
			case o := <-ch:
				take(o)
			default:
				return
			}
		}
	}
	for got < len(members) {
		if deadline {
			drain()
			if bestIdx != -1 || got == len(members) {
				break // deadline fired and we have an answer: stop waiting
			}
			// Deadline fired with no answer yet: block for the next
			// finisher — the contract is best-effort, never an error.
			take(<-ch)
			continue
		}
		select {
		case o := <-ch:
			take(o)
		case <-ctx.Done():
			deadline = true
		}
	}
	if tr != nil {
		// Translate race-local offsets into trace-relative spans. Members
		// without an outcome yet were cut off: their end is the moment the
		// race stopped waiting, not their own finish.
		startNS := tr.Since() - int64(time.Since(base))
		if startNS < 0 {
			startNS = 0
		}
		raceEndNS := tr.Since()
		for i := range members {
			state := obs.MemberCutoff
			endNS := raceEndNS
			if ends[i] >= 0 {
				endNS = startNS + ends[i]
				switch {
				case i == bestIdx:
					state = obs.MemberWon
				case errs[i] == nil:
					state = obs.MemberFinished
				case errors.Is(errs[i], strategy.ErrInapplicable):
					state = obs.MemberDeclined
				default:
					state = obs.MemberError
				}
			}
			tr.AddMember(members[i].name, startNS, endNS, state)
		}
	}
	if bestIdx == -1 {
		if firstErr != nil {
			return best, "", -1, deadline, firstErr
		}
		return best, "", -1, deadline, fmt.Errorf("service: no portfolio member produced an answer")
	}
	return best, members[bestIdx].name, bestIdx, deadline, nil
}

// DefaultPortfolio is the coalescing portfolio raced when a request does
// not pick its own: the fast guaranteed-answer heuristics first, then the
// powerful ones, then the anytime exact solver.
func DefaultPortfolio() []string {
	return []string{
		"aggressive", "briggs+george", "ext-george", "brute",
		"optimistic", "chordal-inc", "exact",
	}
}

// racers resolves names (already validated by Prepare) into race members
// over f; no names means the whole table, in table order. A member marked
// Redundant on f declines without running, and an anytime member cut off
// by the deadline contributes the answer it returned alongside the error.
func racers[R any](t strategy.Table[R], f *graph.File, names []string) []racer[*R] {
	entries := t
	if len(names) > 0 {
		entries = make(strategy.Table[R], len(names))
		for i, n := range names {
			entries[i], _ = t.Lookup(n)
		}
	}
	members := make([]racer[*R], len(entries))
	for i, e := range entries {
		members[i] = racer[*R]{
			name: e.Name,
			run: func(ctx context.Context) (*R, error) {
				if e.Redundant != nil && e.Redundant(f.G, f.K) {
					return nil, fmt.Errorf("%w: %s repeats another member on this instance", strategy.ErrInapplicable, e.Name)
				}
				res, err := e.Run(ctx, f.G, f.K)
				if res != nil {
					return res, nil
				}
				return nil, err
			},
		}
	}
	return members
}

// unknownStrategy reports the first of a request's names that the kind's
// table lacks, as the 400 message the endpoint has always sent.
func unknownStrategy(kind Kind, names []string) error {
	known, noun := coalesce.Strategies().Names(), "strategy"
	switch kind {
	case KindAllocate:
		known, noun = regalloc.Strategies().Names(), "allocator"
	case KindSpill:
		known, noun = spill.Strategies().Names(), "spiller"
	}
	for _, n := range names {
		switch {
		case slices.Contains(known, n):
			continue
		case kind != KindCoalesce:
			return fmt.Errorf("unknown %s %q (have %v)", noun, n, known)
		}
		// Clients see this text: it names exact apart from the sorted
		// other strategies.
		slices.Sort(known)
		known = slices.DeleteFunc(known, func(s string) bool { return s == "exact" })
		return fmt.Errorf("unknown strategy %q (have %v and \"exact\")", n, known)
	}
	return nil
}

// normalizeStrategies canonicalizes a request's strategy list for the
// cache key: sorted, deduplicated. Prepare validates the names.
func normalizeStrategies(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
