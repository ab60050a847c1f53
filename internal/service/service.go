// Package service is the online request-serving layer over the coalescing
// substrate: an HTTP/JSON API that accepts interference graphs (native
// JSON, the textual challenge format, or DIMACS), dispatches them onto a
// shared worker pool (internal/engine), races a strategy portfolio under a
// per-request deadline (portfolio.go), and memoizes answers in a sharded
// LRU keyed by canonical graph hash (internal/graph CanonicalForm) so that
// repeated instances — even renumbered ones the refinement can identify —
// are answered from memory with byte-identical bodies. Concurrent
// identical misses collapse to one portfolio race through a singleflight
// group keyed the same way (internal/singleflight).
//
// Endpoints:
//
//	POST /v1/coalesce  race the coalescing portfolio; best answer wins
//	POST /v1/allocate  race the allocators (IRC + Chaitin + spill-first)
//	POST /v1/spill     race the spillers (greedy, incremental, exact)
//	POST /v1/batch     many instances, one decode pass, pool fan-out
//	GET  /healthz      liveness (alias of /livez)
//	GET  /livez        liveness: process is up
//	GET  /readyz       readiness: 503 while draining, else 200
//	GET  /metrics      Prometheus exposition
//	GET  /stats        JSON counter snapshot
//
// Overload surfaces as backpressure: when the bounded submission queue is
// full, requests are rejected with 429 instead of queueing without bound.
//
// The solve path is exposed to embedders (the cluster worker in
// internal/cluster) in two steps: Prepare parses and canonicalizes a
// request into a Prepared carrying the cache key, and SolvePrepared
// answers it — cache, singleflight, pool and rendering included — as the
// exact bytes the HTTP handler would write (see prepared.go). The
// handlers themselves are exported as SolveHandler and BatchHandler, so
// an embedder serves the endpoints with its own solve path substituted.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"regcoal/internal/engine"
	"regcoal/internal/graph"
	"regcoal/internal/obs"
	"regcoal/internal/session"
	"regcoal/internal/singleflight"
)

// Trace propagation headers. TraceIDHeader carries the request's trace
// ID end to end (router → worker → peer fill); TraceHeader set to "1"
// (or the trace=1 query parameter) opts the response body into a full
// solve timeline; PhasesHeader reports per-phase durations on every
// traced response; FamilyHeader lets load generators label requests
// with a corpus family for pprof attribution and /debug/requests.
const (
	TraceIDHeader = "X-Regcoal-Trace-Id"
	TraceHeader   = "X-Regcoal-Trace"
	PhasesHeader  = "X-Regcoal-Phases"
	FamilyHeader  = "X-Regcoal-Family"
)

// Config parameterizes a Server. Zero values take defaults.
type Config struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// QueueCap bounds jobs waiting for a worker; a full queue rejects
	// with 429 (default 4 × Workers).
	QueueCap int
	// CacheCapacity is the result cache size in entries (default 4096;
	// negative disables caching).
	CacheCapacity int
	// CacheShards spreads cache locking (default 16).
	CacheShards int
	// DefaultDeadline applies when a request does not set deadline_ms;
	// MaxDeadline clamps what a request may ask for (defaults 2s / 30s).
	DefaultDeadline, MaxDeadline time.Duration
	// Portfolio is the default coalescing strategy portfolio (default
	// DefaultPortfolio()).
	Portfolio []string
	// SpillExactNodes is the branch-and-bound node budget of the spill
	// endpoint's exact member (default 16384, ~tens of milliseconds):
	// beyond it the member answers with its anytime incumbent instead of
	// holding a worker for the rest of the deadline.
	SpillExactNodes int
	// MaxVertices rejects oversized request graphs with 400 (default
	// 200000).
	MaxVertices int
	// MaxBodyBytes bounds a request body (default 64 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds the graphs one batch request may carry (default
	// 256).
	MaxBatch int
	// MaxSessions caps live delta-solve sessions (LRU eviction past it;
	// default 256) and SessionTTL expires idle ones (default 15m).
	// SessionBudget bounds the incremental affected-region re-solve in
	// vertices before falling back to a full fresh solve (default 16384).
	MaxSessions   int
	SessionTTL    time.Duration
	SessionBudget int
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.Workers
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if len(c.Portfolio) == 0 {
		c.Portfolio = DefaultPortfolio()
	}
	if c.SpillExactNodes <= 0 {
		c.SpillExactNodes = 1 << 14
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 200000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
}

// Server is the online coalescing service.
type Server struct {
	cfg      Config
	pool     *engine.Pool
	cache    *Cache
	reg      *obs.Registry
	metrics  *Metrics
	lat      *obs.Set
	tracer   *obs.Tracer
	mux      *http.ServeMux
	flights  singleflight.Group
	sessions *session.Store

	draining  atomic.Bool
	baseCtx   context.Context
	cancelAll context.CancelFunc
}

// New builds a Server and its worker pool. Call Close to drain.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if err := unknownStrategy(KindCoalesce, cfg.Portfolio); err != nil {
		return nil, fmt.Errorf("service: bad portfolio: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		pool:      engine.NewPool(cfg.Workers, cfg.QueueCap),
		cache:     NewCache(cfg.CacheCapacity, cfg.CacheShards),
		reg:       obs.NewRegistry(),
		lat:       obs.NewSet(),
		tracer:    obs.NewTracer(128, 32, time.Millisecond),
		mux:       http.NewServeMux(),
		baseCtx:   ctx,
		cancelAll: cancel,
	}
	s.declareMetrics()
	s.sessions = session.NewStore(session.StoreConfig{
		MaxSessions: cfg.MaxSessions,
		TTL:         cfg.SessionTTL,
		Solver:      session.SolverConfig{Budget: cfg.SessionBudget},
	}, session.NewMetrics(s.reg))
	for _, kind := range []Kind{KindCoalesce, KindAllocate, KindSpill} {
		s.mux.HandleFunc("/v1/"+kind.String(), s.SolveHandler(kind, s.solveLocal, s.SolveBatchEntry))
	}
	s.mux.HandleFunc("/v1/coalesce/delta", s.handleDelta)
	s.mux.HandleFunc("/v1/batch", s.BatchHandler(s.SolveBatchEntry))
	s.mux.HandleFunc("/healthz", s.handleLivez)
	s.mux.HandleFunc("/livez", s.handleLivez)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/debug/requests", s.tracer.ServeDebug)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the metric registry behind /metrics and /stats, so an
// embedder (the cluster worker) declares its own families on the same
// surfaces.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// Close cancels in-flight computations and drains the worker pool. Call
// after the HTTP listener has stopped accepting requests (and, for a
// graceful exit, after Drain has let in-flight requests finish — Close
// alone cuts running races short).
func (s *Server) Close() {
	s.cancelAll()
	s.pool.Close()
}

// BeginDrain flips the server to draining: /readyz starts answering 503
// so routers and load balancers stop sending new work, while already
// accepted requests (including batch fan-outs) keep computing.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain marks the server draining and blocks until every in-flight
// request (single and batch) has been answered, or ctx expires. The
// graceful shutdown order is: stop advertising readiness and wait for
// quiesce (Drain), stop the listener, then Close.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.metrics.InFlight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Kind identifies a solve endpoint: which portfolio a request races.
type Kind int

const (
	KindCoalesce Kind = iota
	KindAllocate
	KindSpill
)

func (k Kind) String() string {
	switch k {
	case KindAllocate:
		return "allocate"
	case KindSpill:
		return "spill"
	}
	return "coalesce"
}

// ParseKind resolves an endpoint name ("coalesce", "allocate", "spill");
// the empty string defaults to coalesce.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", "coalesce":
		return KindCoalesce, nil
	case "allocate":
		return KindAllocate, nil
	case "spill":
		return KindSpill, nil
	}
	return KindCoalesce, fmt.Errorf("unknown kind %q (want coalesce, allocate, spill)", name)
}

// httpError carries a status code through the solve path.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// ErrorStatus maps a solve-path error to its HTTP status (500 when the
// error carries none). Embedders writing their own responses (the
// cluster worker) use it to answer with the same codes the service's own
// handlers would.
func ErrorStatus(err error) int {
	he := &httpError{}
	if errors.As(err, &he) {
		return he.status
	}
	return http.StatusInternalServerError
}

// StatusError is an error that answers with the given HTTP status and
// message (embedders' own refusals, such as the worker's full admission
// lane, travel through the solve path as these).
func StatusError(status int, msg string) error { return &httpError{status: status, msg: msg} }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// endpointOf maps a solve kind to its observability endpoint.
func endpointOf(kind Kind) obs.Endpoint {
	switch kind {
	case KindAllocate:
		return obs.EndpointAllocate
	case KindSpill:
		return obs.EndpointSpill
	}
	return obs.EndpointCoalesce
}

// startTrace begins a pooled trace for one request: the propagated
// X-Regcoal-Trace-Id is adopted when present (a fresh ID is minted
// otherwise) and the X-Regcoal-Family label is captured.
func (s *Server) startTrace(e obs.Endpoint, r *http.Request) *obs.Trace {
	id, _ := obs.ParseTraceID(r.Header.Get(TraceIDHeader))
	tr := s.tracer.Start(e, id)
	tr.Family = r.Header.Get(FamilyHeader)
	return tr
}

// finishTrace closes the trace, feeds its end-to-end and per-phase
// durations into the latency histograms, and files it into the
// recent/slow rings. Allocation-free in steady state.
func (s *Server) finishTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.EndPhase()
	for i := 0; i < tr.NPhases; i++ {
		sp := &tr.Phases[i]
		s.lat.ObservePhase(tr.Endpoint, sp.Phase, time.Duration(sp.EndNS-sp.StartNS))
	}
	s.lat.ObserveRequest(tr.Endpoint, time.Duration(tr.Since()))
	s.tracer.Finish(tr)
}

// Tracer exposes the trace rings (for embedders mounting their own
// /debug/requests route).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// traceWanted reports whether the request opted into a full solve
// timeline in the response body (?trace=1 or X-Regcoal-Trace: 1).
func traceWanted(r *http.Request) bool {
	return r.URL.Query().Get("trace") == "1" || r.Header.Get(TraceHeader) == "1"
}

// SolveFunc answers one prepared request: the response body, its cache
// disposition ("hit", "miss", "collapse"), and the tier that answered
// for the X-Regcoal-Tier header ("" omits it). BatchItemFunc answers one
// prepared batch element in place, with its disposition. The server's
// own are solveLocal and SolveBatchEntry; a cluster worker serves the
// same endpoints through SolveHandler and BatchHandler with its
// tiered-cache path substituted, so decode rules, counters, traces and
// bodies cannot drift apart.
type (
	SolveFunc     func(p *Prepared, tr *obs.Trace) (body []byte, disposition, tier string, err error)
	BatchItemFunc func(p *Prepared) (BatchEntry, string)
)

func (s *Server) solveLocal(p *Prepared, tr *obs.Trace) ([]byte, string, string, error) {
	body, disposition, err := s.SolvePreparedTraced(p, tr)
	return body, disposition, "", err
}

// SolveHandler serves a solve endpoint of the given kind, answering
// single requests through solve and legacy in-request batches through
// item.
func (s *Server) SolveHandler(kind Kind, solve SolveFunc, item BatchItemFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
			return
		}
		s.metrics.Requests.With(kind.String()).Inc()
		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)

		tr := s.startTrace(endpointOf(kind), r)
		defer s.finishTrace(tr)
		w.Header().Set(TraceIDHeader, tr.ID.String())
		fail := func(err error) {
			tr.Status = ErrorStatus(err)
			s.writeError(w, err)
		}

		tr.BeginPhase(obs.PhaseDecode)
		var req Request
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			fail(s.countBad(badRequest("decoding request: %v", err)))
			return
		}

		if len(req.Batch) > 0 {
			if req.Graph != nil {
				fail(s.countBad(badRequest("use either graph or batch, not both")))
				return
			}
			if len(req.Batch) > s.cfg.MaxBatch {
				fail(s.countBad(badRequest("batch carries %d graphs, limit %d", len(req.Batch), s.cfg.MaxBatch)))
				return
			}
			tr.EndPhase()
			resp := s.runBatch(kind, req.Batch, item)
			tr.BeginPhase(obs.PhaseEncode)
			data, err := json.Marshal(resp)
			tr.EndPhase()
			if err != nil {
				s.metrics.Errors.Inc()
				tr.Status = http.StatusInternalServerError
				http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
				return
			}
			tr.Status = http.StatusOK
			s.WriteRaw(w, http.StatusOK, data)
			return
		}
		p, err := s.PrepareTraced(kind, &req, tr)
		if err != nil {
			fail(err)
			return
		}
		body2, disposition, tier, err := solve(p, tr)
		if err != nil {
			fail(err)
			return
		}
		tr.Cache = disposition
		tr.Status = http.StatusOK
		w.Header().Set("X-Regcoal-Cache", disposition)
		if tier != "" {
			w.Header().Set("X-Regcoal-Tier", tier)
		}
		if h := obs.BuildPhasesHeader(tr); h != "" {
			w.Header().Set(PhasesHeader, h)
		}
		if traceWanted(r) {
			// Opt-in only: the spliced body is the one deliberate departure
			// from byte-identity, and the splice leaves every preceding byte
			// untouched.
			tr.DurNS = tr.Since()
			body2 = obs.SpliceTraceJSON(body2, tr)
		}
		s.WriteRaw(w, http.StatusOK, body2)
	}
}

// BatchHandler serves POST /v1/batch: many instances of one kind decoded
// in a single pass and fanned out onto the pool, each answered by item.
// In a cluster, the router splits these per shard; single-node, the
// amortization is the one JSON decode and connection for the whole set.
func (s *Server) BatchHandler(item BatchItemFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			s.writeError(w, &httpError{status: http.StatusMethodNotAllowed, msg: "POST required"})
			return
		}
		s.metrics.BatchRequests.Inc()
		s.metrics.InFlight.Add(1)
		defer s.metrics.InFlight.Add(-1)

		var req BatchSolveRequest
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, s.countBad(badRequest("decoding batch request: %v", err)))
			return
		}
		kind, err := ParseKind(req.Kind)
		if err != nil {
			s.writeError(w, s.countBad(badRequest("%v", err)))
			return
		}
		if len(req.Items) == 0 {
			s.writeError(w, s.countBad(badRequest("empty batch")))
			return
		}
		if len(req.Items) > s.cfg.MaxBatch {
			s.writeError(w, s.countBad(badRequest("batch carries %d graphs, limit %d", len(req.Items), s.cfg.MaxBatch)))
			return
		}
		s.WriteJSON(w, http.StatusOK, s.runBatch(kind, req.Items, item))
	}
}

// runBatch fans the items out with bounded concurrency and collects all
// results in request order. Per-element failures (including 429
// saturation) are reported in place; the batch itself answers 200.
func (s *Server) runBatch(kind Kind, items []Request, item BatchItemFunc) *BatchResponse {
	s.metrics.BatchGraphs.Add(int64(len(items)))
	resp := &BatchResponse{Results: make([]BatchEntry, len(items))}
	// Fan out with bounded concurrency: canonicalization and parsing run
	// on these goroutines before the pool's own bound applies, so a batch
	// must not spawn one goroutine per element.
	fanout := s.cfg.Workers * 2
	if fanout > len(items) {
		fanout = len(items)
	}
	idxCh := make(chan int)
	done := make(chan struct{})
	for w := 0; w < fanout; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range idxCh {
				resp.Results[i] = s.solveBatchItem(kind, &items[i], item)
			}
		}()
	}
	for i := range items {
		idxCh <- i
	}
	close(idxCh)
	for w := 0; w < fanout; w++ {
		<-done
	}
	return resp
}

// solveBatchItem answers one batch element as an in-place entry.
func (s *Server) solveBatchItem(kind Kind, sub *Request, item BatchItemFunc) BatchEntry {
	if len(sub.Batch) > 0 {
		return BatchEntry{Error: "batch elements must not nest batches"}
	}
	p, err := s.Prepare(kind, sub)
	if err != nil {
		return BatchEntry{Error: err.Error()}
	}
	e, _ := item(p)
	return e
}

// SolveBatchEntry answers a prepared request as a batch entry plus the
// cache disposition ("hit", "miss", "collapse", or "" on error): the
// server's own BatchItemFunc, which the cluster worker wraps with its
// tiered cache.
func (s *Server) SolveBatchEntry(p *Prepared) (BatchEntry, string) {
	out, disposition, err := s.solvePreparedAny(p, nil)
	if err != nil {
		return BatchEntry{Error: err.Error()}, ""
	}
	switch v := out.(type) {
	case *CoalesceResult:
		return BatchEntry{Coalesce: v}, disposition
	case *AllocateResult:
		return BatchEntry{Allocate: v}, disposition
	case *SpillResult:
		return BatchEntry{Spill: v}, disposition
	}
	return BatchEntry{Error: "internal: unknown result type"}, ""
}

func (s *Server) render(kind Kind, inst *graph.File, canon *graph.Canonical, e *entry) any {
	switch kind {
	case KindAllocate:
		return renderAllocate(inst, canon.Hash, canon.Perm, e)
	case KindSpill:
		return renderSpill(inst, canon.Hash, canon.Perm, e)
	}
	return renderCoalesce(inst, canon.Hash, canon.Perm, e)
}

func (s *Server) countBad(e *httpError) *httpError {
	s.metrics.BadRequests.Add(1)
	return e
}

func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WritePrometheus(w)
}

// WritePrometheus renders the registry — counters, latency histogram
// families, pool gauges, Go runtime gauges, and any families an embedder
// declared — in Prometheus exposition format (the body of GET /metrics).
func (s *Server) WritePrometheus(w io.Writer) { s.reg.WritePrometheus(w) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, s.reg.Stats())
}

// WriteJSON marshals once and writes the exact bytes: the body of a
// repeated request must be byte-identical, so nothing non-deterministic
// may enter here. Exported, with WriteRaw, for the cluster worker's own
// endpoints.
func (s *Server) WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.metrics.Errors.Add(1)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	s.WriteRaw(w, status, data)
}

func (s *Server) WriteRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	he := &httpError{}
	if !errors.As(err, &he) {
		he = &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	s.WriteJSON(w, he.status, ErrorResponse{Error: he.msg})
}
