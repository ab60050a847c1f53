// Command perfbench is the repository benchmark: it drives in-process
// regcoal servers over loopback HTTP with a seeded traffic mix, checks
// every answer against the paper's definitions, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	perfbench --workload cold-mix --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// pass and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"regcoal/internal/corpus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-mix, warm-relabel or cluster-edit")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 25, "seconds one run measures")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced pass writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (cold-mix, warm-relabel, cluster-edit), --seconds > 0, --trace 0|1\n")
		return 2
	}
	var rep *report
	var err error
	if *traceMode == 0 {
		rep, err = runUntraced(w, *seed, *seconds)
	} else {
		rep, err = runTraced(w, *seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %d of %d requests failed or were answered wrongly\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// setUpRepeatedly sets up setupRepeats times, keeping the last set-up
// and closing the others. It returns the set-up seconds of each, and
// fails the input guard when two set-ups drew different streams.
func setUpRepeatedly(w *workload, seed int64, secs float64, traced bool, repeats int) (*env, []float64, error) {
	var e *env
	var times []float64
	var first [32]byte
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		e, err = setUp(w, seed, secs, traced)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		d := e.digest()
		if i == 0 {
			first = d
		} else if d != first {
			e.close()
			return nil, nil, errors.New("input guard: the same seed drew different request streams")
		}
	}
	return e, times, nil
}

// checked is one sent stream with its outcomes.
type checked struct {
	reqs []*request
	outs []outcome
	sent []bool // nil: all sent
}

func (c *checked) each(fn func(r *request, o *outcome)) {
	for i, r := range c.reqs {
		if c.sent == nil || c.sent[i] {
			fn(r, &c.outs[i])
		}
	}
}

// checkAll judges every answer and tallies attempts and failures.
// Violations are printed to stderr (the first few in full).
func checkAll(rep *report, stderr io.Writer, cs ...*checked) {
	shown := 0
	for _, c := range cs {
		c.each(func(r *request, o *outcome) {
			rep.attempted++
			if o.err == nil && o.status == http.StatusOK {
				o.bad = judge(r, o)
			}
			if o.ok() {
				return
			}
			rep.failed++
			if shown < 5 {
				shown++
				fmt.Fprintf(stderr, "perfbench: %s request %d (%s %s): status %d, transport %v, checker %v\n",
					r.kind, r.id, r.family, r.variant, o.status, o.err, o.bad)
			}
		})
	}
}

// judge checks one 200 answer.
func judge(r *request, o *outcome) error {
	switch r.kind {
	case kindCoalesce, kindAllocate, kindSpill:
		in, err := instOfBody(r.body)
		if err != nil {
			return fmt.Errorf("decoding the request sent: %v", err)
		}
		o.v, err = checkSolve(r.kind, in, o.body)
		return err
	case kindCreate, kindDelta:
		sp := r.sess
		applied := 0
		if r.kind == kindDelta {
			applied = int(r.version+1) * deltaBatch
		}
		ref := corpus.ApplyEditScript(sp.base, 0, sp.deltas[:applied])
		alive, idSpace := aliveIDs(sp.base.G.N(), sp.deltas[:applied])
		a, err := checkDelta(instOfFile(ref), alive, idSpace, int64(applied/deltaBatch), o.body)
		if err == nil && r.kind == kindDelta && a.SessionID != sp.id {
			err = fmt.Errorf("answer names session %q, sent %q", a.SessionID, sp.id)
		}
		return err
	case kindClose:
		var a deltaAnswer
		if err := json.Unmarshal(o.body, &a); err != nil {
			return err
		}
		if !a.Closed || a.SessionID != r.sess.id {
			return fmt.Errorf("close answer %s does not close session %s", o.body, r.sess.id)
		}
		return nil
	}
	return fmt.Errorf("unknown request kind %q", r.kind)
}

// runUntraced measures the end-to-end metrics: set-up, an open-loop
// phase and a closed-loop phase. Each phase starts after a forced
// collection, so neither pays for the garbage of the one before.
func runUntraced(w *workload, seed int64, secs float64) (*report, error) {
	e, setups, err := setUpRepeatedly(w, seed, secs, false, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer e.close()
	secsOf := phaseSeconds(w, secs, false)
	dur := func(name string) time.Duration { return time.Duration(secsOf[name] * float64(time.Second)) }

	heap := startHeapSampler(5 * time.Millisecond)
	warmOpen := &checked{reqs: e.streams["warm-open"]}
	warmOpen.outs = e.tgt.sequential(warmOpen.reqs, false)
	runtime.GC()
	open := &checked{reqs: e.streams["open"]}
	open.outs = e.tgt.openLoop(open.reqs, w.rate, conns, false)
	warmClosed := &checked{reqs: e.streams["warm-closed"]}
	warmClosed.outs = e.tgt.sequential(warmClosed.reqs, false)
	runtime.GC()
	closed := &checked{reqs: e.streams["closed"]}
	closedDur := dur("closed")
	closed.outs, closed.sent = e.tgt.closedLoop(closed.reqs, conns, closedDur)
	peak := heap.finish()

	rep := &report{}
	checkAll(rep, os.Stderr,
		&checked{reqs: e.prime, outs: e.primeOut},
		&checked{reqs: e.creates, outs: e.createsOut},
		warmOpen, open, warmClosed, closed)

	sort.Float64s(setups)
	rep.add("setup_s", "s", setups[len(setups)/2])

	var solveLat []timed
	deltas := 0
	open.each(func(r *request, o *outcome) {
		switch {
		case r.isSolve():
			solveLat = append(solveLat, timed{at: time.Duration(o.due), lat: float64(o.latency()) / 1e6})
		case r.kind == kindDelta:
			deltas++
		}
	})
	rep.add("p50_ms", "ms", windowed(solveLat, dur("open"), 0.50))

	// Capacity is the median over one-second windows of valid answers
	// completed, so a transient stall of the machine moves one window,
	// not the result.
	windows := make([]float64, int(closedDur/time.Second))
	good := 0
	closed.each(func(r *request, o *outcome) {
		if i := int(time.Duration(o.done) / time.Second); o.ok() && i < len(windows) {
			windows[i]++
			good++
		}
	})
	if closed.sent[len(closed.sent)-1] {
		rep.note("closed-loop stream ran out before %.1fs; capacity is understated", closedDur.Seconds())
	}
	rep.add("capacity_rps", "1/s", quantile(windows, 0.5))
	rep.add("ok_frac", "frac", 1-share(float64(rep.failed), float64(rep.attempted)))

	var coalescedW, totalW, spillCost int64
	spills, solves, late := 0, 0, 0
	for _, c := range []*checked{open, closed} {
		c.each(func(r *request, o *outcome) {
			if !r.isSolve() || !o.ok() {
				return
			}
			solves++
			if o.v.deadlineHit {
				late++
			}
			if o.v.isSpill {
				spills++
				spillCost += o.v.spillCost
			} else {
				coalescedW += o.v.coalescedW
				totalW += o.v.totalW
			}
		})
	}
	rep.add("quality_frac", "frac", share(float64(coalescedW), float64(totalW)))
	rep.add("spill_cost", "cost", share(float64(spillCost), float64(spills)))
	rep.add("on_time_frac", "frac", 1-share(float64(late), float64(solves)))
	rep.add("heap_peak_mb", "MB", float64(peak)/(1<<20))

	rep.note("%s seed %d: %d open-loop solve answers at %.0f/s, %d closed-loop answers in %.1fs, %d delta batches",
		w.name, seed, len(solveLat), w.rate, good, closedDur.Seconds(), deltas)
	noteCache(rep, open)
	if !w.cluster && w.hotPerFamily == 0 {
		var sent []*request
		for _, c := range []*checked{open, closed} {
			c.each(func(r *request, _ *outcome) { sent = append(sent, r) })
		}
		dup, n := canonicalDupShare(sent)
		rep.note("input guard: canonical-duplicate share %.4f over %d cold-mix requests", dup, n)
	}
	return rep, nil
}

// noteCache reports the cache dispositions of a phase's solve answers,
// with their sample counts.
func noteCache(rep *report, c *checked) {
	type count struct{ n, hit int }
	by := map[string]*count{}
	all := &count{}
	c.each(func(r *request, o *outcome) {
		if !r.isSolve() || o.status != http.StatusOK {
			return
		}
		if by[r.variant] == nil {
			by[r.variant] = &count{}
		}
		by[r.variant].n++
		all.n++
		if o.cache == "hit" {
			by[r.variant].hit++
			all.hit++
		}
	})
	rep.note("service.hit_frac %.4f over %d solve answers", share(float64(all.hit), float64(all.n)), all.n)
	tiers := map[string]int{}
	c.each(func(r *request, o *outcome) {
		if r.isSolve() && o.tier != "" {
			tiers[o.tier]++
		}
	})
	if len(tiers) > 0 {
		rep.note("  cluster tiers: local %d, peer %d, compute %d", tiers["local"], tiers["peer"], tiers["compute"])
	}
	for _, v := range []string{variantNovel, variantIdentical, variantRelabeled} {
		if c := by[v]; c != nil {
			rep.note("  %s: %d requests (%.3f of the stream), hit share %.4f",
				v, c.n, share(float64(c.n), float64(all.n)), share(float64(c.hit), float64(c.n)))
		}
	}
}
