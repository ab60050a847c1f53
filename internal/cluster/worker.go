package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"regcoal/internal/obs"
	"regcoal/internal/service"
)

// setTraceHeader stamps a peer cache request with the originating
// request's trace ID, so one ID threads router → worker → peer hops.
func setTraceHeader(req *http.Request, tr *obs.Trace) {
	if tr != nil && !tr.ID.IsZero() {
		req.Header.Set(service.TraceIDHeader, tr.ID.String())
	}
}

// Worker is one shard of the serving tier: a service.Server wrapped with
// the cluster's tiered cache, admission lanes, and peer-fill protocol.
// Its solve endpoints behave byte-identically to the plain service — same
// decode rules, same error messages, same deterministic bodies — with
// three additions:
//
//   - Tiered cache: on a local (L1) miss whose canonical hash is owned by
//     a different shard, the worker first asks the owner's cache over
//     GET /internal/cache (L2) and seeds its own cache with the entry,
//     turning a cluster-wide duplicate into a hit instead of a re-solve.
//     Entries travel in canonical vertex space (service wire format), so
//     a relabeled duplicate filled from a peer still renders in its own
//     numbering.
//   - Admission lanes: misses are classified fast/heavy by size class and
//     admitted through bounded lanes; a full lane answers 429.
//   - Push-on-compute: an entry computed on any shard is pushed to every
//     member of its hash's replica set (PUT /internal/cache), so each of
//     the R owners accumulates the cluster's working set no matter where
//     traffic lands — read-your-writes holds on any replica.
//   - Session replication: successful /v1/coalesce/delta ops are logged
//     and pushed to the replica set of the session's base hash, so a
//     secondary can rebuild a primary's session by deterministic replay
//     (see replication.go).
type Worker struct {
	svc    *service.Server
	cfg    WorkerConfig
	topo   *Topology // nil when Self is empty (single-node behavior)
	adm    *Admission
	client *http.Client
	mux    *http.ServeMux

	// prev holds the pre-reshard view during the bounded handoff
	// window: reads that miss the new owners fall back to the old ones,
	// so no request observes a cold cache while entries stream over.
	prev atomic.Pointer[TopologyView]

	sessLogs *sessionLogs

	m *WorkerMetrics
}

// WorkerConfig parameterizes a Worker. Self and Peers use the same base
// URLs the router's config does.
type WorkerConfig struct {
	// Self is this worker's base URL as it appears in Peers (and in the
	// router's worker list). Empty disables the tiered cache (single-node
	// behavior).
	Self string
	// Peers lists every worker's base URL, including Self.
	Peers []string
	// VNodes is the ring's virtual-node count (default DefaultVNodes).
	// Must match the router's.
	VNodes int
	// Admission parameterizes the fast/heavy lanes.
	Admission AdmissionConfig
	// Client performs peer cache traffic (default 2s timeout).
	Client *http.Client
	// DisablePeerFill turns off L2 lookups and pushes while keeping the
	// ring (for experiments isolating admission from the tiered cache).
	DisablePeerFill bool
	// Replicas is the replica-set size R each hash range is owned by
	// (default DefaultReplicas, capped by the worker count). Must match
	// the router's. R = 1 is the pre-replication single-owner behavior.
	Replicas int
	// HandoffRate bounds the handoff stream to this many cache entries
	// per second per topology change (0 = unlimited). Resharding trades
	// warm caches for network burst; the rate keeps the burst bounded.
	HandoffRate float64
	// HandoffWindow is how long after adopting a new topology the old
	// view remains a read fallback: a miss on the new owners retries the
	// old ones while entries are still streaming (default 5s).
	HandoffWindow time.Duration
}

// NewWorker wraps svc as a cluster shard.
func NewWorker(svc *service.Server, cfg WorkerConfig) (*Worker, error) {
	if cfg.Self != "" {
		found := false
		for _, p := range cfg.Peers {
			if p == cfg.Self {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: self %q not in peer list %v", cfg.Self, cfg.Peers)
		}
	}
	w := &Worker{
		svc:      svc,
		cfg:      cfg,
		adm:      NewAdmission(cfg.Admission),
		client:   cfg.Client,
		mux:      http.NewServeMux(),
		sessLogs: newSessionLogs(svc.Config().MaxSessions),
	}
	if cfg.Self != "" && len(cfg.Peers) > 0 {
		w.topo = NewTopology(cfg.Peers, cfg.VNodes)
		// LRU eviction is a migration trigger: an evicted session's op
		// log is re-pushed so the session survives as rebuildable state
		// on its current replica set even after a reshard moved it.
		svc.Sessions().SetEvictHook(w.onSessionEvict)
	}
	w.m = w.declareMetrics(svc.Registry())
	if w.client == nil {
		w.client = &http.Client{Timeout: 2 * time.Second}
	}
	// The solve endpoints are the service's own handlers with the tiered
	// cache and admission substituted for the local solve path: same
	// decode rules, counters, traces and bodies.
	for _, kind := range []service.Kind{service.KindCoalesce, service.KindAllocate, service.KindSpill} {
		w.mux.HandleFunc("/v1/"+kind.String(), svc.SolveHandler(kind, w.solveClustered, w.solveBatchEntry))
	}
	w.mux.HandleFunc("/v1/coalesce/delta", w.handleDelta)
	w.mux.HandleFunc("/v1/batch", svc.BatchHandler(w.solveBatchEntry))
	w.mux.HandleFunc("/internal/cache", w.handleInternalCache)
	w.mux.HandleFunc("/internal/session/log", w.handleInternalSessionLog)
	w.mux.HandleFunc("/internal/session/import", w.handleSessionImport)
	w.mux.HandleFunc("/internal/topology", w.handleInternalTopology)
	// Liveness, readiness, /metrics, /stats (the shard families are
	// declared on the service's registry) and anything else stay the
	// service's.
	w.mux.Handle("/", svc.Handler())
	return w, nil
}

// Topology exposes the worker's membership object (nil when not
// clustered).
func (w *Worker) Topology() *Topology { return w.topo }

// replicaCount is the effective replica-set size.
func (w *Worker) replicaCount() int {
	if w.cfg.Replicas > 0 {
		return w.cfg.Replicas
	}
	return DefaultReplicas
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// Service exposes the wrapped server (tests, embedding).
func (w *Worker) Service() *service.Server { return w.svc }

// solveClustered answers a prepared request through the tiered cache and
// admission lanes. tier reports where the answer came from: "local"
// (this shard's cache), "peer" (filled from the owner's cache), or
// "compute". tr (nil ok) records the peer lookup as its own phase.
func (w *Worker) solveClustered(p *service.Prepared, tr *obs.Trace) (body []byte, disposition, tier string, err error) {
	tr.BeginPhase(obs.PhasePeer)
	seeded := w.peerFill(p, tr)
	tr.EndPhase()
	if !p.NoCache() && (w.svc.CacheContains(p.Key()) || w.svc.FlightInProgress(p.Key())) {
		// Cached or about to collapse onto an in-flight race: either way
		// this request costs no compute, so it bypasses the admission
		// lanes. (If the flight completes between the check and the
		// solve, the request computes without a slot — rare and benign.)
		body, disposition, err = w.svc.SolvePreparedTraced(p, tr)
		if err != nil {
			return nil, "", "", err
		}
		switch {
		case disposition != "hit":
			tier = "compute"
		case seeded:
			tier = "peer"
		default:
			tier = "local"
		}
		return body, disposition, tier, nil
	}
	lane := w.adm.Classify(p.Vertices(), p.Density())
	if !w.adm.TryAcquire(lane) {
		w.m.LaneRejects.With(lane.String()).Inc()
		w.svc.Metrics().Rejected.Inc()
		return nil, "", "", service.StatusError(http.StatusTooManyRequests, lane.String()+" lane full, retry later")
	}
	defer w.adm.Release(lane)
	body, disposition, err = w.svc.SolvePreparedTraced(p, tr)
	if err != nil {
		return nil, "", "", err
	}
	w.pushToOwners(p, disposition, tr)
	return body, disposition, "compute", nil
}

// solveBatchEntry is the per-item path of both batch shapes: the
// service's entry solve with the tiered cache and push in front.
// Admission is not applied per item — the batch fan-out is already
// bounded by the pool queue, whose saturation surfaces per entry.
func (w *Worker) solveBatchEntry(p *service.Prepared) (service.BatchEntry, string) {
	w.peerFill(p, nil)
	e, disposition := w.svc.SolveBatchEntry(p)
	if e.Error == "" {
		w.pushToOwners(p, disposition, nil)
	}
	return e, disposition
}

// peerFill consults the replica owners' caches for a key missing
// locally, in replica order, seeding the local cache from the first
// hit. Returns whether the local cache was seeded. During a handoff
// window the previous view's owners are consulted after the current
// ones: an entry whose range just moved may not have streamed to its
// new owner yet, but the old owner still holds it — reads fall back
// old-owner→new-owner, so a reshard never exposes a cold cache. The
// request's trace ID (when tr is non-nil) rides each lookup so the hops
// are attributable to their cluster request.
func (w *Worker) peerFill(p *service.Prepared, tr *obs.Trace) bool {
	if w.topo == nil || w.cfg.DisablePeerFill || p.NoCache() {
		return false
	}
	if w.svc.CacheContains(p.Key()) {
		return false
	}
	tried := map[string]bool{w.cfg.Self: true}
	owners := w.topo.View().Ring.Replicas(p.Hash(), w.replicaCount())
	if prev := w.prev.Load(); prev != nil {
		owners = append(append([]string(nil), owners...), prev.Ring.Replicas(p.Hash(), w.replicaCount())...)
	}
	for _, owner := range owners {
		if tried[owner] {
			continue
		}
		tried[owner] = true
		if w.peerFillFrom(owner, p, tr) {
			return true
		}
	}
	return false
}

// peerFillFrom asks one replica owner for the entry.
func (w *Worker) peerFillFrom(owner string, p *service.Prepared, tr *obs.Trace) bool {
	resp, err := w.doEpochRequest(owner, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodGet, owner+"/internal/cache?key="+url.QueryEscape(p.Key()), nil)
		if err == nil {
			setTraceHeader(req, tr)
		}
		return req, err
	})
	if err != nil {
		w.m.PeerErrors.Inc()
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		w.m.PeerMisses.Inc()
		io.Copy(io.Discard, resp.Body)
		return false
	}
	if resp.StatusCode != http.StatusOK {
		w.m.PeerErrors.Inc()
		io.Copy(io.Discard, resp.Body)
		return false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		w.m.PeerErrors.Inc()
		return false
	}
	if err := w.svc.CacheSeed(p.Key(), data); err != nil {
		w.m.PeerErrors.Inc()
		return false
	}
	w.m.PeerFills.Inc()
	return true
}

// pushToOwners sends a freshly computed entry to every member of its
// hash's replica set, so each of the R owners accumulates the cluster
// working set no matter which worker the traffic hit — and a later read
// answered by any replica sees the write (read-your-writes).
// Synchronous and best-effort: a failed push costs a future peer-fill
// miss, nothing else.
func (w *Worker) pushToOwners(p *service.Prepared, disposition string, tr *obs.Trace) {
	if w.topo == nil || w.cfg.DisablePeerFill || p.NoCache() || disposition != "miss" {
		return
	}
	data, ok := w.svc.CachePeek(p.Key())
	if !ok {
		return
	}
	for _, owner := range w.topo.View().Ring.Replicas(p.Hash(), w.replicaCount()) {
		if owner == w.cfg.Self {
			continue
		}
		resp, err := w.doEpochRequest(owner, func() (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPut, owner+"/internal/cache?key="+url.QueryEscape(p.Key()), bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			setTraceHeader(req, tr)
			return req, nil
		})
		if err != nil {
			w.m.PeerErrors.Inc()
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			w.m.PeerErrors.Inc()
			continue
		}
		w.m.PeerPushes.Inc()
	}
}

// handleInternalCache is the peer-fill wire: GET returns the serialized
// canonical-space entry for ?key (404 when absent), PUT installs one.
func (w *Worker) handleInternalCache(rw http.ResponseWriter, r *http.Request) {
	if !w.checkEpoch(rw, r) {
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		w.writeError(rw, http.StatusBadRequest, "missing key")
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := w.svc.CachePeek(key)
		if !ok {
			w.writeError(rw, http.StatusNotFound, "not cached")
			return
		}
		w.svc.WriteRaw(rw, http.StatusOK, data)
	case http.MethodPut:
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err != nil {
			w.writeError(rw, http.StatusBadRequest, "reading body")
			return
		}
		if err := w.svc.CacheSeed(key, data); err != nil {
			w.writeError(rw, http.StatusBadRequest, err.Error())
			return
		}
		rw.WriteHeader(http.StatusNoContent)
	default:
		w.writeError(rw, http.StatusMethodNotAllowed, "GET or PUT required")
	}
}

// WorkerMetrics are the shard-level counter handles, declared on the
// wrapped service's registry: regcoal_cluster_*, regcoal_session_repl_*,
// regcoal_epoch_*, regcoal_handoff_* on /metrics and the "cluster"
// section of /stats.
type WorkerMetrics struct {
	PeerFills       *obs.Counter // local misses answered from a peer's cache
	PeerMisses      *obs.Counter // peer lookups that found nothing
	PeerPushes      *obs.Counter // computed entries pushed to replica owners
	PeerErrors      *obs.Counter // peer lookups/pushes that failed
	ReplPushes      *obs.Counter // session log records replicated to peers
	ReplFailures    *obs.Counter // ...that failed
	Rebuilds        *obs.Counter // sessions rebuilt from a replicated log
	RebuildFailures *obs.Counter // ...that failed to replay
	EpochRejects    *obs.Counter // internal RPCs rejected 409 for a stale epoch
	EpochAdoptions  *obs.Counter // topology views adopted (broadcast or 409 exchange)
	HandoffEntries  *obs.Counter // cache entries streamed to new owners
	HandoffBytes    *obs.Counter // ...their serialized size
	HandoffSessions *obs.Counter // sessions exported to new primaries
	HandoffErrors   *obs.Counter // handoff pushes that failed after retry
	HandoffRounds   *obs.Counter // topology changes that ran a handoff
	HandoffActive   *obs.Gauge   // handoffs currently streaming
	SessionImports  *obs.Counter // sessions imported (made live) via migration
	ImportFailures  *obs.Counter // import records rejected
	// LaneRejects counts admission 429s per lane ("fast", "heavy").
	LaneRejects *obs.Vec[obs.Counter]
	// ReplicaLag is the un-acked session log pushes per peer. Children
	// are never removed, so a departed peer's final lag stays readable.
	ReplicaLag *obs.Vec[obs.Gauge]
}

// Metrics exposes the shard-level counters (tests, embedding).
func (w *Worker) Metrics() *WorkerMetrics { return w.m }

// declareMetrics declares the shard families on reg. Membership-only
// entries (self, epoch, per-peer replica lag) exist only when the worker
// is clustered.
func (w *Worker) declareMetrics(reg *obs.Registry) *WorkerMetrics {
	counter := func(name, help, key string) *obs.Counter {
		return reg.Counter(obs.Desc{Name: name, Help: help, Stats: "cluster." + key})
	}
	if w.cfg.Self != "" {
		reg.Value("cluster.self", func() any { return w.cfg.Self })
	}
	reg.Value("cluster.peers", func() any {
		if w.topo != nil {
			return len(w.topo.View().Nodes)
		}
		return len(w.cfg.Peers)
	})
	reg.Value("cluster.replicas", func() any { return w.replicaCount() })
	reg.Value("cluster.session_logs", func() any { return w.sessLogs.len() })
	m := &WorkerMetrics{
		PeerFills:       counter("regcoal_cluster_peer_fills_total", "Local misses answered from a peer shard's cache.", "peer_fills"),
		PeerMisses:      counter("regcoal_cluster_peer_misses_total", "Peer cache lookups that found nothing.", "peer_misses"),
		PeerPushes:      counter("regcoal_cluster_peer_pushes_total", "Computed entries pushed to their owning shard.", "peer_pushes"),
		PeerErrors:      counter("regcoal_cluster_peer_errors_total", "Failed peer cache lookups or pushes.", "peer_errors"),
		ReplPushes:      counter("regcoal_session_repl_pushes_total", "Session op-log records replicated to peers.", "session_repl_pushes"),
		ReplFailures:    counter("regcoal_session_repl_failures_total", "Session op-log replication pushes that failed.", "session_repl_failures"),
		Rebuilds:        counter("regcoal_session_rebuilds_total", "Sessions rebuilt from a replicated op log after failover.", "session_rebuilds"),
		RebuildFailures: counter("regcoal_session_rebuild_failures_total", "Session rebuilds that failed to replay.", "session_rebuild_failures"),
		EpochRejects:    counter("regcoal_epoch_rejects_total", "Internal RPCs rejected 409 for a stale topology epoch.", "epoch_rejects"),
		EpochAdoptions:  counter("regcoal_epoch_adoptions_total", "Topology views adopted from a broadcast or 409 exchange.", "epoch_adoptions"),
		HandoffEntries:  counter("regcoal_handoff_entries_total", "Cache entries streamed to new owners during resharding.", "handoff_entries"),
		HandoffBytes:    counter("regcoal_handoff_bytes_total", "Serialized bytes of cache entries streamed during resharding.", "handoff_bytes"),
		HandoffSessions: counter("regcoal_handoff_sessions_total", "Sessions exported to new owners (reshard or eviction migration).", "handoff_sessions"),
		HandoffErrors:   counter("regcoal_handoff_errors_total", "Handoff pushes that failed after the retry round.", "handoff_errors"),
		HandoffRounds:   counter("regcoal_handoff_rounds_total", "Topology changes that ran a handoff stream.", "handoff_rounds"),
		SessionImports:  counter("regcoal_session_imports_total", "Sessions made live via the migration import wire.", "session_imports"),
		ImportFailures:  counter("regcoal_session_import_failures_total", "Migration import records rejected.", "session_import_failures"),
	}
	m.HandoffActive = reg.Gauge(obs.Desc{Name: "regcoal_handoff_active", Help: "Handoff streams currently running.", Stats: "cluster.handoff_active"})
	// Unclustered, the membership families stay off both surfaces: their
	// handles count into a nil registry.
	var clustered *obs.Registry
	if w.topo != nil {
		clustered = reg
		reg.GaugeFunc(obs.Desc{Name: "regcoal_topology_epoch", Help: "Current cluster membership epoch.", Stats: "cluster.epoch"},
			func() float64 { return float64(w.topo.View().Epoch) })
	}
	m.ReplicaLag = clustered.GaugeVec(obs.Desc{Name: "regcoal_session_replica_lag",
		Help: "Un-acked session log pushes per peer (rises on push, falls on ack).", Stats: "cluster.session_replica_lag.*"}, "peer")
	// Prefill the initial peer set so the family is present from the
	// first scrape; peers that join later appear on their first push.
	for _, p := range w.cfg.Peers {
		if p != w.cfg.Self {
			m.ReplicaLag.With(p)
		}
	}
	lanes := []string{LaneFast.String(), LaneHeavy.String()}
	m.LaneRejects = reg.CounterVec(obs.Desc{Name: "regcoal_cluster_lane_rejects_total", Help: "Admission rejections per lane.",
		Stats: "cluster.*_lane_rejects"}, "lane", lanes...)
	reg.GaugeFuncVec(obs.Desc{Name: "regcoal_cluster_lane_depth", Help: "Admitted solves per lane.", Stats: "cluster.*_lane_depth"},
		"lane", lanes, func(lane string) float64 {
			if lane == LaneHeavy.String() {
				return float64(w.adm.Depth(LaneHeavy))
			}
			return float64(w.adm.Depth(LaneFast))
		})
	return m
}

func (w *Worker) writeError(rw http.ResponseWriter, status int, msg string) {
	w.svc.WriteJSON(rw, status, service.ErrorResponse{Error: msg})
}
