package session

import "regcoal/internal/obs"

// Metrics is the session layer's counter set: the regcoal_session_*
// families on /metrics and the "sessions" section of /stats, declared
// once on the serving registry. The hot path only adds.
type Metrics struct {
	Created *obs.Counter
	Closed  *obs.Counter
	Evicted *obs.Counter
	Expired *obs.Counter
	Active  *obs.Gauge

	Applies   *obs.Counter // delta batches applied
	Deltas    *obs.Counter // individual delta ops applied
	Rejected  *obs.Counter // batches rejected with 400
	Conflicts *obs.Counter // version/base-hash conflicts (409)

	Solves *obs.Vec[obs.Counter] // solves per Path

	ChordalWins *obs.Counter // components won by the chordal-inc member
}

// NewMetrics declares the session families on reg (nil: unrendered
// handles, for stores and sessions outside a server).
func NewMetrics(reg *obs.Registry) *Metrics {
	counter := func(name, help, key string) *obs.Counter {
		return reg.Counter(obs.Desc{Name: name, Help: help, Stats: "sessions." + key})
	}
	m := &Metrics{
		Created:   counter("regcoal_session_created_total", "Delta sessions created.", "created"),
		Closed:    counter("regcoal_session_closed_total", "Delta sessions closed by the client.", "closed"),
		Evicted:   counter("regcoal_session_evicted_total", "Delta sessions evicted by the LRU cap.", "evicted"),
		Expired:   counter("regcoal_session_expired_total", "Delta sessions expired by the idle TTL.", "expired"),
		Applies:   counter("regcoal_session_applies_total", "Delta batches applied.", "applies"),
		Deltas:    counter("regcoal_session_deltas_total", "Individual delta operations applied.", "deltas"),
		Rejected:  counter("regcoal_session_rejected_total", "Delta batches rejected as invalid (400).", "rejected"),
		Conflicts: counter("regcoal_session_conflicts_total", "Delta requests rejected on version or base-hash conflict (409).", "conflicts"),
	}
	m.Solves = reg.CounterVec(obs.Desc{Name: "regcoal_session_solves_total",
		Help: "Session solves per path (cached, memo, incremental, fresh).", Stats: "sessions.solves.*"},
		"path", string(PathCached), string(PathMemo), string(PathIncremental), string(PathFresh))
	m.ChordalWins = counter("regcoal_session_chordal_wins_total", "Components whose best answer came from the chordal-inc member.", "chordal_wins")
	m.Active = reg.Gauge(obs.Desc{Name: "regcoal_session_active", Help: "Delta sessions currently alive.", Stats: "sessions.active"})
	return m
}
