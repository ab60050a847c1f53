package service

// The two-step solve API the HTTP handlers are built on, exported so the
// cluster worker (internal/cluster) reuses the exact handler logic
// instead of re-implementing it behind a recorder:
//
//	p, err := s.Prepare(kind, req)      // parse, validate, canonicalize
//	body, disp, err := s.SolvePrepared(p)  // cache → singleflight → race
//
// Prepare is the expensive decode side (graph build + Weisfeiler-Leman
// canonicalization); SolvePrepared is the answer side. Splitting them
// lets a batch endpoint amortize preparation across a connection and
// lets cluster nodes consult the Prepared's canonical hash for routing
// and tiered caching before committing compute.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime/pprof"
	"strings"
	"time"

	"regcoal/internal/engine"
	"regcoal/internal/graph"
	"regcoal/internal/obs"
)

// Prepared is a parsed, validated, canonicalized solve request, ready to
// be answered by SolvePrepared. It is immutable after Prepare and safe
// to share across goroutines.
type Prepared struct {
	kind       Kind
	inst       *graph.File
	canon      *graph.Canonical
	strategies []string
	key        string
	deadlineMS int64
	noCache    bool
}

// Kind reports which portfolio the request races.
func (p *Prepared) Kind() Kind { return p.kind }

// Key is the canonical cache key: kind, normalized strategy list, and
// canonical graph hash. Identical keys get identical response bodies.
func (p *Prepared) Key() string { return p.key }

// Hash is the canonical graph hash — the cluster routing key: relabeled
// duplicates of one instance share it.
func (p *Prepared) Hash() string { return p.canon.Hash }

// Vertices reports the instance size.
func (p *Prepared) Vertices() int { return p.inst.G.N() }

// Edges reports the instance's interference edge count.
func (p *Prepared) Edges() int { return p.inst.G.E() }

// Density is the instance's edge density in [0,1]: E / (N choose 2).
func (p *Prepared) Density() float64 {
	n := p.inst.G.N()
	if n < 2 {
		return 0
	}
	return float64(p.inst.G.E()) / (float64(n) * float64(n-1) / 2)
}

// NoCache reports whether the request asked to bypass the result cache.
func (p *Prepared) NoCache() bool { return p.noCache }

// Prepare parses and validates a single-graph request into a Prepared:
// graph decode, register-count resolution, size cap, strategy validation,
// freeze, and canonicalization. Errors carry HTTP status (ErrorStatus)
// and count toward the bad-request metric exactly as the HTTP handlers
// do.
func (s *Server) Prepare(kind Kind, req *Request) (*Prepared, error) {
	return s.PrepareTraced(kind, req, nil)
}

// PrepareTraced is Prepare with span capture: the canonicalization phase
// is recorded onto tr (any phase open on entry — typically decode — is
// closed when canon begins). tr may be nil.
func (s *Server) PrepareTraced(kind Kind, req *Request, tr *obs.Trace) (*Prepared, error) {
	if req.Graph == nil {
		return nil, s.countBad(badRequest("missing graph"))
	}
	f, ferr := req.Graph.ToFile()
	if ferr != nil {
		return nil, s.countBad(badRequest("%v", ferr))
	}
	k := f.K
	if req.K > 0 {
		k = req.K
	}
	if k <= 0 {
		return nil, s.countBad(badRequest("no register count: set k in the request or the graph payload"))
	}
	if f.G.N() > s.cfg.MaxVertices {
		return nil, s.countBad(badRequest("graph has %d vertices, limit %d", f.G.N(), s.cfg.MaxVertices))
	}
	// Freeze the parsed graph: every portfolio racer reads this one
	// instance concurrently — a shared read-only snapshot instead of a
	// per-racer clone. A racer that tried to mutate it would panic
	// loudly instead of corrupting its rivals.
	inst := &graph.File{G: f.G.Freeze(), K: k}

	strategies := req.Strategies
	if len(strategies) == 0 && kind == KindCoalesce {
		strategies = s.cfg.Portfolio
	}
	strategies = normalizeStrategies(strategies)
	// Validate up front so bad names are 400s, not queued work.
	switch kind {
	case KindCoalesce:
		if _, err := coalesceRacers(inst, strategies); err != nil {
			return nil, s.countBad(badRequest("%v", err))
		}
	case KindAllocate:
		if _, err := allocateRacers(inst, strategies); err != nil {
			return nil, s.countBad(badRequest("%v", err))
		}
	case KindSpill:
		if _, err := s.spillRacers(inst, strategies); err != nil {
			return nil, s.countBad(badRequest("%v", err))
		}
	}

	tr.BeginPhase(obs.PhaseCanon)
	canon := graph.CanonicalForm(inst)
	tr.EndPhase()
	return &Prepared{
		kind:       kind,
		inst:       inst,
		canon:      canon,
		strategies: strategies,
		key:        kind.String() + "|" + strings.Join(strategies, ",") + "|" + canon.Hash,
		deadlineMS: req.DeadlineMS,
		noCache:    req.NoCache,
	}, nil
}

// SolvePrepared answers a prepared request with the exact JSON bytes the
// HTTP handler writes, plus the cache disposition ("hit", "miss", or
// "collapse" when the answer was shared from a concurrent identical
// request's race).
func (s *Server) SolvePrepared(p *Prepared) (body []byte, disposition string, err error) {
	return s.SolvePreparedTraced(p, nil)
}

// SolvePreparedTraced is SolvePrepared with span capture: cache lookup,
// portfolio race (with the full member timeline when this request leads
// the computation), and response encoding are recorded onto tr. tr may
// be nil; the rendered bytes are identical either way.
func (s *Server) SolvePreparedTraced(p *Prepared, tr *obs.Trace) (body []byte, disposition string, err error) {
	out, disposition, err := s.solvePreparedAny(p, tr)
	if err != nil {
		return nil, "", err
	}
	tr.BeginPhase(obs.PhaseEncode)
	data, merr := json.Marshal(out)
	tr.EndPhase()
	if merr != nil {
		s.metrics.Errors.Add(1)
		return nil, "", &httpError{status: http.StatusInternalServerError, msg: "encoding response"}
	}
	return data, disposition, nil
}

// solvePreparedAny answers a prepared request as a typed result: consult
// the cache, collapse concurrent identical misses into one computation
// via the singleflight group, or compute on the pool under the request
// deadline. Leader-only bookkeeping (deadline-hit and strategy-win
// counters, the cache insert) happens inside the flight so a collapse of
// n requests records one race, not n.
func (s *Server) solvePreparedAny(p *Prepared, tr *obs.Trace) (out any, disposition string, err error) {
	if p.noCache {
		// no_cache means "compute fresh": no cache lookup or insert, and
		// no collapsing onto someone else's race.
		e, cerr := s.computeOnPool(p, tr)
		if cerr != nil {
			return nil, "", cerr
		}
		s.recordComputed(e, tr)
		return s.render(p.kind, p.inst, p.canon, e), "miss", nil
	}
	tr.BeginPhase(obs.PhaseCache)
	e, hit := s.cache.Get(p.key)
	tr.EndPhase()
	if hit {
		s.metrics.CacheHits.Add(1)
		noteEntry(tr, &e)
		return s.render(p.kind, p.inst, p.canon, &e), "hit", nil
	}
	// Misses count only consulted lookups: no_cache requests never touch
	// the cache and must not skew the hit rate.
	s.metrics.CacheMisses.Add(1)
	v, ferr, shared := s.flights.Do(p.key, func() (any, error) {
		e, cerr := s.computeOnPool(p, tr)
		if cerr != nil {
			return nil, cerr
		}
		s.recordComputed(e, tr)
		s.cache.Put(p.key, e)
		return e, nil
	})
	if ferr != nil {
		return nil, "", ferr
	}
	ce := v.(*entry)
	if shared {
		s.metrics.SingleflightCollapses.Add(1)
		// The entry is shared, but the rendering is this request's own:
		// a collapsed isomorphic duplicate gets its answer in its own
		// vertex numbering, exactly like a cache hit would. The follower's
		// trace still learns the shared race's winner, just not its member
		// timeline (that belongs to the leader's trace).
		noteEntry(tr, ce)
		return s.render(p.kind, p.inst, p.canon, ce), "collapse", nil
	}
	return s.render(p.kind, p.inst, p.canon, ce), "miss", nil
}

// noteEntry stamps an answer's provenance — winning strategy and whether
// its race was cut off by the deadline — onto the trace.
func noteEntry(tr *obs.Trace, e *entry) {
	if tr == nil {
		return
	}
	tr.Winner = e.strategy
	tr.DeadlineHit = e.deadlineHit
}

func (s *Server) recordComputed(e *entry, tr *obs.Trace) {
	if e.deadlineHit {
		s.metrics.DeadlineHits.Add(1)
	}
	s.metrics.StrategyWins.With(e.strategy).Inc()
	noteEntry(tr, e)
}

// computeOnPool schedules the portfolio race on the worker pool under the
// request deadline and maps pool saturation to 429. The race phase span
// covers queue wait plus the race itself; the solve goroutine carries
// pprof labels (endpoint, family) so CPU profiles attribute time to
// traffic shape, and each portfolio member adds its own strategy label
// on top (see race).
func (s *Server) computeOnPool(p *Prepared, tr *obs.Trace) (*entry, error) {
	deadline := s.cfg.DefaultDeadline
	if p.deadlineMS > 0 {
		deadline = time.Duration(p.deadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}

	tr.BeginPhase(obs.PhaseRace)
	defer tr.EndPhase()

	labels := pprof.Labels("regcoal_endpoint", p.kind.String(), "regcoal_family", traceFamily(tr))
	type computed struct {
		e   *entry
		err error
	}
	ch := make(chan computed, 1)
	job := func() {
		pprof.Do(s.baseCtx, labels, func(context.Context) {
			e, jerr := s.compute(p, deadline, tr)
			ch <- computed{e: e, err: jerr}
		})
	}
	if serr := s.pool.TrySubmit(job); serr != nil {
		if errors.Is(serr, engine.ErrSaturated) {
			s.metrics.Rejected.Add(1)
			return nil, &httpError{status: http.StatusTooManyRequests, msg: "server saturated, retry later"}
		}
		s.metrics.Errors.Add(1)
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "server shutting down"}
	}
	res := <-ch
	if res.err != nil {
		s.metrics.Errors.Add(1)
		return nil, &httpError{status: http.StatusInternalServerError, msg: res.err.Error()}
	}
	return res.e, nil
}

// traceFamily reads the family label off a trace, tolerating nil.
func traceFamily(tr *obs.Trace) string {
	if tr == nil {
		return ""
	}
	return tr.Family
}

// compute runs the portfolio race for the instance under the deadline and
// packages the winner as a canonical-space cache entry. The race context
// descends from the server context, not the client connection, so a
// disconnecting client cannot poison the cache with a truncated answer.
func (s *Server) compute(p *Prepared, deadline time.Duration, tr *obs.Trace) (*entry, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	defer cancel()
	inst, canon, strategies := p.inst, p.canon, p.strategies
	if p.kind == KindAllocate {
		members, err := allocateRacers(inst, strategies)
		if err != nil {
			return nil, err
		}
		best, winner, _, hit, err := race(ctx, members, cmpAllocate, tr)
		if err != nil {
			return nil, err
		}
		return allocateEntry(canon.Perm, best, winner, hit), nil
	}
	if p.kind == KindSpill {
		members, err := s.spillRacers(inst, strategies)
		if err != nil {
			return nil, err
		}
		best, winner, _, hit, err := race(ctx, members, cmpSpill, tr)
		if err != nil {
			return nil, err
		}
		return spillEntry(canon.Perm, best, winner, hit), nil
	}
	members, err := coalesceRacers(inst, strategies)
	if err != nil {
		return nil, err
	}
	best, winner, _, hit, err := race(ctx, members, cmpCoalesce, tr)
	if err != nil {
		return nil, err
	}
	return coalesceEntry(inst, canon.Perm, best, winner, hit), nil
}

// FlightInProgress reports whether a solve for key is currently racing:
// a request issued now would collapse onto it instead of computing.
// Exported for the cluster worker's admission control, which exempts
// collapsing requests from lane slots — they cost no compute.
func (s *Server) FlightInProgress(key string) bool { return s.flights.InFlight(key) }

// RoutingHash computes the canonical graph hash of a single-graph
// request — the key a cluster router shards by. It returns "" when the
// request cannot be parsed, carries no register count, or exceeds
// maxVertices (maxVertices <= 0 means no cap): such requests cannot be
// canonicalized, and the router sends them to a deterministic fallback
// shard whose worker reproduces the exact single-node error response.
func RoutingHash(req *Request, maxVertices int) string {
	if req.Graph == nil {
		return ""
	}
	f, err := req.Graph.ToFile()
	if err != nil {
		return ""
	}
	k := f.K
	if req.K > 0 {
		k = req.K
	}
	if k <= 0 {
		return ""
	}
	if maxVertices > 0 && f.G.N() > maxVertices {
		return ""
	}
	return graph.CanonicalForm(&graph.File{G: f.G, K: k}).Hash
}
