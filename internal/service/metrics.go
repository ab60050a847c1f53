package service

import (
	"time"

	"regcoal/internal/obs"
)

// Metrics are the service's counter handles. Each is declared once on the
// server's obs.Registry, which renders it both as Prometheus text on GET
// /metrics and into the JSON document on GET /stats; the hot path is one
// atomic add. Requests and strategy wins are labelled families, read
// lock-free for a label value already seen; a strategy's child is
// created on its first win.
type Metrics struct {
	Requests              *obs.Vec[obs.Counter] // per endpoint: coalesce, allocate, spill, delta
	BatchRequests         *obs.Counter
	BatchGraphs           *obs.Counter
	CacheHits             *obs.Counter
	CacheMisses           *obs.Counter
	SingleflightCollapses *obs.Counter
	Rejected              *obs.Counter
	BadRequests           *obs.Counter
	Errors                *obs.Counter
	DeadlineHits          *obs.Counter
	InFlight              *obs.Gauge
	StrategyWins          *obs.Vec[obs.Counter]
}

// declareMetrics declares the service families on s.reg, in /metrics
// order: counters and cache/pool gauges, strategy wins, pool size,
// latency histograms, Go runtime. The session layer (session.NewMetrics)
// and a cluster worker's shard families follow on the same registry.
func (s *Server) declareMetrics() {
	reg := s.reg
	start := time.Now()
	counter := func(name, help, key string) *obs.Counter {
		return reg.Counter(obs.Desc{Name: name, Help: help, Stats: key})
	}
	m := &Metrics{
		Requests: reg.CounterVec(obs.Desc{Name: "regcoal_requests_total", Help: "Requests per endpoint.", Stats: "*_requests"},
			"endpoint", "coalesce", "allocate", "spill", "delta"),
		BatchRequests: counter("regcoal_batch_requests_total", "POST /v1/batch requests.", "batch_requests"),
		BatchGraphs:   counter("regcoal_batch_graphs_total", "Graphs received inside batch requests.", "batch_graphs"),
		CacheHits:     counter("regcoal_cache_hits_total", "Requests answered from the result cache.", "cache_hits"),
		CacheMisses:   counter("regcoal_cache_misses_total", "Requests that had to compute.", "cache_misses"),
	}
	reg.CounterFunc(obs.Desc{Name: "regcoal_cache_evictions_total", Help: "Entries evicted from the result cache.", Stats: "cache_evictions"},
		func() float64 { return float64(s.cache.Evictions()) })
	m.SingleflightCollapses = counter("regcoal_singleflight_collapses_total",
		"Requests answered by collapsing onto a concurrent identical request's race.", "singleflight_collapses")
	m.Rejected = counter("regcoal_rejected_total", "Requests rejected with 429 (pool saturated).", "rejected")
	m.BadRequests = counter("regcoal_bad_requests_total", "Requests rejected with 400.", "bad_requests")
	m.Errors = counter("regcoal_errors_total", "Requests failed with 5xx.", "errors")
	m.DeadlineHits = counter("regcoal_deadline_hits_total", "Races cut off by the request deadline.", "deadline_hits")
	m.InFlight = reg.Gauge(obs.Desc{Name: "regcoal_in_flight", Help: "Requests currently being served.", Stats: "in_flight"})
	reg.GaugeFunc(obs.Desc{Name: "regcoal_cache_entries", Help: "Entries in the result cache.", Stats: "cache_entries"},
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc(obs.Desc{Name: "regcoal_queue_depth", Help: "Jobs waiting for a pool worker.", Stats: "queue_depth"},
		func() float64 { return float64(s.pool.QueueDepth()) })
	reg.GaugeFunc(obs.Desc{Name: "regcoal_uptime_seconds", Help: "Seconds since server start.", Stats: "uptime_seconds"},
		func() float64 { return time.Since(start).Seconds() })
	m.StrategyWins = reg.CounterVec(obs.Desc{Name: "regcoal_strategy_wins_total", Help: "Portfolio races won per strategy.", Stats: "strategy_wins.*"},
		"strategy")
	s.metrics = m
	reg.GaugeFunc(obs.Desc{Name: "regcoal_pool_workers", Help: "Worker goroutines in the solve pool."},
		func() float64 { return float64(s.cfg.Workers) })
	reg.Register(s.lat)
	reg.Register(obs.Runtime{})
}
