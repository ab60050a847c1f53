package main

// The traced run. It replays the workload's stream in two halves, one
// untraced and one traced, and attributes client latency to layers from
// outside the program: spans around the benchmark's own calls into each
// layer's public functions, the server timelines the program already
// returns on ?trace=1, the phase and cache headers, and /metrics diffs.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/coalesce"
	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/spill"
)

// span is one timed interval. Times are nanoseconds from the start of
// the pass that recorded it; parent indexes the recorder's spans (-1 for
// a root); req names the request the span belongs to.
type span struct {
	Name   string `json:"name"`
	Pass   string `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the run ends. Spans are
// recorded after the passes, from one goroutine.
type recorder struct {
	spans []span
}

func (rec *recorder) add(s span) int {
	rec.spans = append(rec.spans, s)
	return len(rec.spans) - 1
}

// time runs fn inside a span and returns its duration in nanoseconds.
func (rec *recorder) time(name, pass string, epoch time.Time, req int, fn func()) int64 {
	start := int64(time.Since(epoch))
	fn()
	end := int64(time.Since(epoch))
	rec.add(span{Name: name, Pass: pass, Start: start, End: end, Parent: -1, Req: req})
	return end - start
}

func (rec *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range rec.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serverTrace is the timeline a solve answer carries on ?trace=1.
type serverTrace struct {
	Trace *struct {
		DurationNS int64 `json:"duration_ns"`
		Phases     []struct {
			Phase   string `json:"phase"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		} `json:"phases"`
		Race []struct {
			Strategy string `json:"strategy"`
			StartNS  int64  `json:"start_ns"`
			EndNS    int64  `json:"end_ns"`
			State    string `json:"state"`
		} `json:"race"`
	} `json:"trace"`
}

// portfolios lists each solve endpoint's race members, as the service
// races them by default.
var portfolios = map[string][]string{
	kindCoalesce: service.DefaultPortfolio(),
	kindAllocate: {"irc", "briggs+george", "optimistic", "none", "spill+briggs+george", "spill+optimistic"},
	kindSpill:    {"greedy", "incremental", "exact"},
}

// registryStrategies are the coalesce registry members of the default
// portfolio, timed standalone.
var registryStrategies = []string{"aggressive", "briggs+george", "ext-george", "brute", "optimistic", "chordal-inc"}

var spillers = []string{"greedy", "incremental", "exact"}

// metricName turns a strategy name into a metric name component.
func metricName(s string) string { return strings.ReplaceAll(s, "+", "_") }

// layers are the attribution buckets of client latency, in order.
var layers = []string{"decode", "canon", "peer", "cache", "queue_race", "racers", "session", "encode", "unattributed"}

// attribution accumulates per-layer self time over a pass.
type attribution struct {
	self  map[string]float64
	total float64
}

// sample is the per-request data the per-layer metrics are built from.
type sample struct {
	r      *request
	o      *outcome
	phases map[string]int64
	trace  *serverTrace
}

// parsePass decodes each answered request's phases and timeline, and
// records the server-side spans under the request's client span.
func parsePass(rec *recorder, pass string, c *checked) []sample {
	var out []sample
	c.each(func(r *request, o *outcome) {
		if o.err != nil || o.status != http.StatusOK {
			return
		}
		s := sample{r: r, o: o, phases: parsePhases(o.phases)}
		var st serverTrace
		if json.Unmarshal(o.body, &st) == nil && st.Trace != nil {
			s.trace = &st
		}
		root := rec.add(span{Name: "http." + r.kind, Pass: pass, Start: o.sent, End: o.done, Parent: -1, Req: r.id})
		if t := s.trace; t != nil && t.Trace != nil {
			// The server's clock is not the client's: centre the server
			// timeline inside the client span.
			base := o.sent + (o.done-o.sent-t.Trace.DurationNS)/2
			for _, p := range t.Trace.Phases {
				ps := rec.add(span{Name: "service." + p.Phase, Pass: pass, Start: base + p.StartNS,
					End: base + p.EndNS, Parent: root, Req: r.id})
				if p.Phase != "race" {
					continue
				}
				for _, m := range t.Trace.Race {
					rec.add(span{Name: "race." + r.kind + "." + m.Strategy, Pass: pass, Start: base + m.StartNS,
						End: base + m.EndNS, Parent: ps, Req: r.id})
				}
			}
		}
		out = append(out, s)
	})
	return out
}

// parsePhases decodes an X-Regcoal-Phases header ("decode=123;canon=45").
func parsePhases(h string) map[string]int64 {
	out := map[string]int64{}
	for _, seg := range strings.Split(h, ";") {
		name, val, ok := strings.Cut(seg, "=")
		if !ok {
			continue
		}
		if ns, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] += ns
		}
	}
	return out
}

// attribute splits each request's client latency into layer self times.
func attribute(samples []sample) attribution {
	a := attribution{self: map[string]float64{}}
	for _, s := range samples {
		lat := float64(s.o.done - s.o.sent)
		a.total += lat
		var inServer float64
		for name, ns := range s.phases {
			inServer += float64(ns)
			switch {
			case name == "race" && !s.r.isSolve():
				a.self["session"] += float64(ns)
			case name == "race":
				racers := float64(memberUnion(s.trace))
				if racers > float64(ns) {
					racers = float64(ns)
				}
				a.self["racers"] += racers
				a.self["queue_race"] += float64(ns) - racers
			default:
				a.self[name] += float64(ns)
			}
		}
		if rest := lat - inServer; rest > 0 {
			a.self["unattributed"] += rest
		}
	}
	return a
}

// memberUnion is the time covered by at least one race member.
func memberUnion(st *serverTrace) int64 {
	if st == nil || st.Trace == nil || len(st.Trace.Race) == 0 {
		return 0
	}
	lo, hi := st.Trace.Race[0].StartNS, st.Trace.Race[0].EndNS
	for _, m := range st.Trace.Race {
		lo = min(lo, m.StartNS)
		hi = max(hi, m.EndNS)
	}
	// Members start together on the pool worker, so their union is the
	// interval from the first start to the last end.
	return hi - lo
}

// promScrape reads a /metrics page into series name → value.
func promScrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// scrapeAll sums the /metrics series of every server of an environment.
func scrapeAll(urls []string) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, u := range urls {
		m, err := promScrape(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

func diff(a, b map[string]float64, series string) float64 { return b[series] - a[series] }

// queueSampler polls the services' queue-depth gauge through the
// program's own Prometheus writer.
type queueSampler struct {
	stop, done chan struct{}
	max        float64
}

func startQueueSampler(svcs []*service.Server) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var buf bytes.Buffer
		for {
			for _, s := range svcs {
				buf.Reset()
				s.WritePrometheus(&buf)
				if v := parseProm(buf.Bytes())["regcoal_queue_depth"]; v > q.max {
					q.max = v
				}
			}
			select {
			case <-q.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() float64 {
	close(q.stop)
	<-q.done
	return q.max
}

// runtimeCounters reads the process's allocation and CPU counters.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// serverURLs returns the /metrics URLs and in-process services of a
// single node or a cluster.
func serverURLs(n *node, cl *cluster.InProcess) ([]string, []*service.Server) {
	if n != nil {
		return []string{n.url}, []*service.Server{n.svc}
	}
	urls := []string{cl.RouterURL}
	var svcs []*service.Server
	for _, w := range cl.Workers {
		urls = append(urls, w.URL)
		svcs = append(svcs, w.Service)
	}
	return urls, svcs
}

// passResult is one pass of the traced run: its outcomes, their parsed
// timelines, /metrics before and after, and the deepest queue seen.
type passResult struct {
	c        *checked
	samples  []sample
	before   map[string]float64
	after    map[string]float64
	queueMax float64
}

// tracedPass sends a stream — open loop with the server timeline opted
// in, or closed loop for closedFor when that is positive — sampling queue
// depth and diffing /metrics around it.
func tracedPass(t *target, n *node, cl *cluster.InProcess,
	reqs []*request, rate float64, nconns int, closedFor time.Duration) (*passResult, error) {
	urls, svcs := serverURLs(n, cl)
	before, err := scrapeAll(urls)
	if err != nil {
		return nil, err
	}
	q := startQueueSampler(svcs)
	c := &checked{reqs: reqs}
	if closedFor > 0 {
		c.outs, c.sent = t.closedLoop(reqs, nconns, closedFor)
	} else {
		c.outs = t.openLoop(reqs, rate, nconns, true)
	}
	qmax := q.finish()
	after, err := scrapeAll(urls)
	if err != nil {
		return nil, err
	}
	return &passResult{c: c, before: before, after: after, queueMax: qmax}, nil
}

// runTraced measures the per-layer metrics.
func runTraced(w *workload, seed int64, secs float64, outDir string) (*report, error) {
	e, _, err := setUpRepeatedly(w, seed, secs, true, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rec := &recorder{}
	rep := &report{}
	secsOf := phaseSeconds(w, secs, true)

	// Untraced half: the baseline for the tracing overhead and the
	// runtime counters.
	warmU := &checked{reqs: e.streams["warm-u"]}
	warmU.outs = e.tgt.sequential(warmU.reqs, false)
	runtime.GC()
	a0, gc0, cpu0 := runtimeCounters()
	u := &checked{reqs: e.streams["u"]}
	u.outs = e.tgt.openLoop(u.reqs, w.rate, conns, false)
	a1, gc1, cpu1 := runtimeCounters()

	// Traced half.
	warmT := &checked{reqs: e.streams["warm-t"]}
	warmT.outs = e.tgt.sequential(warmT.reqs, false)
	runtime.GC()
	tp, err := tracedPass(e.tgt, e.node, e.cl, e.streams["t"], w.rate, conns, 0)
	if err != nil {
		return nil, err
	}

	// Single-node session layer: the delta probe, closed loop.
	var probe *passResult
	if ps := e.streams["probe"]; len(ps) > 0 {
		probe, err = tracedPass(e.tgt, e.node, e.cl, ps, 0, 1,
			time.Duration(secsOf["probe"]*float64(time.Second)))
		if err != nil {
			return nil, err
		}
	}

	// Cluster layers for single-node workloads: the same traffic through
	// a router and three workers.
	clusterPass := tp
	var replayPrime *checked
	if !w.cluster {
		cl, err := cluster.StartInProcess(3, cluster.InProcessOptions{})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		ct := newTarget(cl.RouterURL, conns)
		defer ct.close()
		replayPrime = &checked{reqs: e.prime}
		replayPrime.outs = ct.sequential(e.prime, false)
		clusterPass, err = tracedPass(ct, nil, cl, e.streams["replay"], w.rate, conns, 0)
		if err != nil {
			return nil, err
		}
	}

	primed := &checked{reqs: e.prime, outs: e.primeOut}
	cs := []*checked{primed, {reqs: e.creates, outs: e.createsOut}, warmU, u, warmT, tp.c}
	if probe != nil {
		cs = append(cs, probe.c)
	}
	if replayPrime != nil {
		cs = append(cs, replayPrime, clusterPass.c)
	}
	checkAll(rep, os.Stderr, cs...)

	tp.samples = parsePass(rec, "t", tp.c)
	primeSamples := parsePass(rec, "prime", primed)
	if clusterPass != tp {
		clusterPass.samples = parsePass(rec, "replay", clusterPass.c)
	}
	if probe != nil {
		probe.samples = parsePass(rec, "probe", probe.c)
	}

	offline(rec, rep, tp.samples)
	serviceLayer(rep, tp, primeSamples)
	raceLayer(rep, append(primeSamples, tp.samples...))
	clusterLayer(rep, clusterPass)
	sessionPass := probe
	if w.cluster {
		sessionPass = tp
	}
	sessionLayer(rep, sessionPass)

	nreq := 0
	u.each(func(*request, *outcome) { nreq++ })
	rep.add("runtime.alloc_bytes_per_req", "bytes", share(a1-a0, float64(nreq)))
	rep.add("runtime.gc_cpu_frac", "frac", share(gc1-gc0, cpu1-cpu0))
	var late, solveLat, deltaLat []float64
	u.each(func(r *request, o *outcome) {
		late = append(late, float64(o.sent-o.due)/1e6)
		switch {
		case r.isSolve():
			solveLat = append(solveLat, float64(o.latency())/1e6)
		case r.kind == kindDelta:
			deltaLat = append(deltaLat, float64(o.latency())/1e6)
		}
	})
	if probe != nil {
		probe.c.each(func(r *request, o *outcome) {
			if r.kind == kindDelta {
				deltaLat = append(deltaLat, float64(o.latency())/1e6)
			}
		})
	}
	rep.add("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	// Latencies measured as the end-to-end ones are, but ungated: on a
	// shared 2-CPU machine their spread across seeds is wider than any
	// bound a gate could use.
	rep.add("tail.p95_ms", "ms", quantile(solveLat, 0.95))
	rep.add("tail.p99_ms", "ms", quantile(solveLat, 0.99))
	rep.add("session.delta_p50_ms", "ms", quantile(deltaLat, 0.50))
	rep.add("session.delta_p95_ms", "ms", quantile(deltaLat, 0.95))
	rep.add("session.delta_p99_ms", "ms", quantile(deltaLat, 0.99))
	var latU, latT []float64
	u.each(func(r *request, o *outcome) { latU = append(latU, float64(o.done-o.sent)) })
	tp.c.each(func(r *request, o *outcome) { latT = append(latT, float64(o.done-o.sent)) })
	rep.add("obs.trace_overhead_frac", "frac", share(quantile(latT, 0.5), quantile(latU, 0.5))-1)

	att := attribute(tp.samples)
	for _, l := range layers {
		rep.add("attr."+l+"_frac", "frac", share(att.self[l], att.total))
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
	if err := rec.write(path); err != nil {
		return nil, err
	}
	rep.note("%s seed %d: traced %d requests; %d spans written to %s", w.name, seed, len(tp.samples), len(rec.spans), path)
	noteCache(rep, tp.c)
	return rep, nil
}

// offline times direct, uncontended calls into the graph layer, the
// in-process solve API and the strategy registries on the traced
// requests' instances.
func offline(rec *recorder, rep *report, samples []sample) {
	epoch := time.Now()
	spillNodes := 1 << 14
	probeSvc, err := service.New(service.Config{CacheCapacity: -1})
	if err == nil {
		defer probeSvc.Close()
		spillNodes = probeSvc.Config().SpillExactNodes
	}
	var decode, canon []float64
	perStrategy := map[string][]float64{}
	perSpiller := map[string][]float64{}
	timedKinds := map[string]int{}
	const perKind = 40
	for _, s := range samples {
		r := s.r
		if !r.isSolve() {
			continue
		}
		var req service.Request
		if json.Unmarshal(r.body, &req) != nil || req.Graph == nil {
			continue
		}
		var f *graph.File
		var ferr error
		decode = append(decode, float64(rec.time("graph.ToFile", "offline", epoch, r.id, func() {
			f, ferr = req.Graph.ToFile()
		}))/1e3)
		if ferr != nil {
			continue
		}
		f = &graph.File{G: f.G.Freeze(), K: f.K}
		canon = append(canon, float64(rec.time("graph.CanonicalForm", "offline", epoch, r.id, func() {
			graph.CanonicalForm(f)
		}))/1e3)

		if timedKinds[r.kind] >= perKind {
			continue
		}
		timedKinds[r.kind]++
		if probeSvc != nil {
			kind, _ := service.ParseKind(r.kind)
			var p *service.Prepared
			rec.time("service.Prepare", "offline", epoch, r.id, func() { p, _ = probeSvc.Prepare(kind, &req) })
			if p != nil {
				rec.time("service.SolvePrepared", "offline", epoch, r.id, func() { probeSvc.SolvePrepared(p) })
			}
		}
		switch r.kind {
		case kindCoalesce:
			for _, name := range registryStrategies {
				st, ok := coalesce.LookupStrategy(name)
				if !ok {
					continue
				}
				ns := rec.time("coalesce."+name+".Run", "offline", epoch, r.id, func() {
					st.Run(context.Background(), f.G, f.K)
				})
				perStrategy[name] = append(perStrategy[name], float64(ns)/1e6)
			}
		case kindSpill:
			for _, name := range spillers {
				ns := rec.time("spill."+name, "offline", epoch, r.id, func() {
					switch name {
					case "greedy":
						spill.Greedy(f, nil)
					case "incremental":
						spill.Incremental(f, nil)
					case "exact":
						spill.ExactBudget(context.Background(), f, nil, spillNodes)
					}
				})
				perSpiller[name] = append(perSpiller[name], float64(ns)/1e6)
			}
		}
	}
	rep.add("graph.decode_us.p50", "us", quantile(decode, 0.5))
	rep.add("graph.decode_us.p99", "us", quantile(decode, 0.99))
	rep.add("graph.canon_us.p50", "us", quantile(canon, 0.5))
	rep.add("graph.canon_us.p99", "us", quantile(canon, 0.99))
	for _, name := range registryStrategies {
		rep.add("coalesce."+metricName(name)+"_ms", "ms", mean(perStrategy[name]))
	}
	for _, name := range spillers {
		rep.add("spill."+name+"_ms", "ms", mean(perSpiller[name]))
	}
}

// serviceLayer reports the server phases, the unattributed remainder
// and the cache dispositions of the traced pass.
func serviceLayer(rep *report, tp *passResult, prime []sample) {
	ph := map[string][]float64{}
	var unattributed, allocRace []float64
	var solves, hits, collapses, relabeled, relabeledHits, identical, identicalHits, rejects, total float64
	for _, s := range append(append([]sample(nil), prime...), tp.samples...) {
		if s.r.isSolve() && s.r.kind == kindAllocate && s.phases["race"] > 0 {
			allocRace = append(allocRace, float64(s.phases["race"])/1e6)
		}
		if s.r.isSolve() && s.phases["race"] > 0 {
			ph["race"] = append(ph["race"], float64(s.phases["race"])/1e6)
		}
	}
	for _, s := range tp.samples {
		if !s.r.isSolve() {
			continue
		}
		var inServer int64
		for name, ns := range s.phases {
			inServer += ns
			if name != "race" {
				ph[name] = append(ph[name], float64(ns)/1e3)
			}
		}
		unattributed = append(unattributed, float64(s.o.done-s.o.sent-inServer)/1e6)
		solves++
		hit := s.o.cache == "hit"
		if hit {
			hits++
		}
		if s.o.cache == "collapse" {
			collapses++
		}
		switch s.r.variant {
		case variantRelabeled:
			relabeled++
			if hit {
				relabeledHits++
			}
		case variantIdentical:
			identical++
			if hit {
				identicalHits++
			}
		}
	}
	tp.c.each(func(r *request, o *outcome) {
		total++
		if o.status == http.StatusTooManyRequests {
			rejects++
		}
	})
	for _, name := range []string{"decode", "canon", "cache", "encode"} {
		rep.add("service."+name+"_us.p50", "us", quantile(ph[name], 0.5))
		rep.add("service."+name+"_us.p99", "us", quantile(ph[name], 0.99))
	}
	rep.add("service.race_ms.p50", "ms", quantile(ph["race"], 0.5))
	rep.add("service.race_ms.p99", "ms", quantile(ph["race"], 0.99))
	rep.add("service.unattributed_ms.p50", "ms", quantile(unattributed, 0.5))
	rep.add("service.unattributed_ms.p99", "ms", quantile(unattributed, 0.99))
	rep.add("service.hit_frac", "frac", share(hits, solves))
	rep.add("service.hit_samples", "count", solves)
	rep.add("service.relabel_hit_frac", "frac", share(relabeledHits, relabeled))
	rep.add("service.identical_hit_frac", "frac", share(identicalHits, identical))
	rep.add("service.collapse_frac", "frac", share(collapses, solves))
	rep.add("service.reject_frac", "frac", share(rejects, total))
	rep.add("engine.queue_depth_max", "count", tp.queueMax)
	rep.add("regalloc.race_ms", "ms", quantile(allocRace, 0.5))
}

// raceLayer reports the portfolio race timelines.
func raceLayer(rep *report, samples []sample) {
	type memberStats struct {
		ms         []float64
		last, wins float64
	}
	stats := map[string]*memberStats{}
	races := map[string]float64{}
	var nraces, cutoffRaces, wasted, all float64
	for _, s := range samples {
		if !s.r.isSolve() || s.trace == nil || s.trace.Trace == nil || len(s.trace.Trace.Race) == 0 {
			continue
		}
		nraces++
		races[s.r.kind]++
		race := s.trace.Trace.Race
		lastIdx, cut := 0, false
		for i, m := range race {
			key := s.r.kind + "." + m.Strategy
			if stats[key] == nil {
				stats[key] = &memberStats{}
			}
			d := float64(m.EndNS - m.StartNS)
			stats[key].ms = append(stats[key].ms, d/1e6)
			all += d
			if m.State == "won" {
				stats[key].wins++
			} else {
				wasted += d
			}
			if m.State == "cutoff" {
				cut = true
			}
			if m.EndNS > race[lastIdx].EndNS {
				lastIdx = i
			}
		}
		stats[s.r.kind+"."+race[lastIdx].Strategy].last++
		if cut {
			cutoffRaces++
		}
	}
	for _, kind := range solveKinds {
		for _, m := range portfolios[kind] {
			st := stats[kind+"."+m]
			if st == nil {
				st = &memberStats{}
			}
			base := kind + "." + metricName(m)
			rep.add("race.member_ms."+base+".p50", "ms", quantile(st.ms, 0.5))
			rep.add("race.last_frac."+base, "frac", share(st.last, races[kind]))
			rep.add("race.win_frac."+base, "frac", share(st.wins, races[kind]))
		}
	}
	rep.add("race.cutoff_frac", "frac", share(cutoffRaces, nraces))
	rep.add("race.wasted_frac", "frac", share(wasted, all))
}

// clusterLayer reports the router hop, peer fills, replication and
// routing balance of a pass through the cluster.
func clusterLayer(rep *report, p *passResult) {
	var hop, peer []float64
	shards := map[string]float64{}
	var reads float64
	for _, s := range p.samples {
		if s.o.shard != "" {
			shards[s.o.shard]++
		}
		if !s.r.isSolve() {
			continue
		}
		reads++
		var inWorker int64
		for _, ns := range s.phases {
			inWorker += ns
		}
		hop = append(hop, float64(s.o.done-s.o.sent-inWorker)/1e6)
		peer = append(peer, float64(s.phases["peer"])/1e6)
	}
	var requests float64
	p.c.each(func(*request, *outcome) { requests++ })
	d := func(series string) float64 { return diff(p.before, p.after, series) }
	rep.add("cluster.hop_ms.p50", "ms", quantile(hop, 0.5))
	rep.add("cluster.hop_ms.p99", "ms", quantile(hop, 0.99))
	rep.add("cluster.peer_ms.p50", "ms", quantile(peer, 0.5))
	rep.add("cluster.peer_ms.p99", "ms", quantile(peer, 0.99))
	rep.add("cluster.peer_fill_frac", "frac", share(d("regcoal_cluster_peer_fills_total"), reads))
	rep.add("cluster.push_per_solve", "count", share(d("regcoal_cluster_peer_pushes_total"), d("regcoal_cache_misses_total")))
	rep.add("cluster.retries_per_k", "count", 1000*share(d("regcoal_router_retries_total"), requests))
	rep.add("cluster.hedges_per_k", "count", 1000*share(d("regcoal_router_hedges_total"), requests))
	rep.add("cluster.failovers_per_k", "count", 1000*share(d("regcoal_router_failovers_total"), requests))
	var most, sum float64
	for _, n := range shards {
		most = max(most, n)
		sum += n
	}
	const workers = 3
	rep.add("cluster.shard_skew", "ratio", share(most, sum/workers))
}

// sessionLayer reports how the session layer answered delta batches.
func sessionLayer(rep *report, p *passResult) {
	paths := []string{"cached", "memo", "incremental", "fresh"}
	var d func(string) float64
	if p != nil {
		d = func(series string) float64 { return diff(p.before, p.after, series) }
	} else {
		d = func(string) float64 { return 0 }
	}
	var all float64
	for _, path := range paths {
		all += d(`regcoal_session_solves_total{path="` + path + `"}`)
	}
	for _, path := range paths {
		rep.add("session.path_frac."+path, "frac", share(d(`regcoal_session_solves_total{path="`+path+`"}`), all))
	}
	rep.add("session.repl_pushes_per_delta", "count",
		share(d("regcoal_session_repl_pushes_total"), d("regcoal_session_applies_total")))
}
