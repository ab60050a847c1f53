package session

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"
	"time"

	"regcoal/internal/graph"
	"regcoal/internal/singleflight"
)

// StoreConfig parameterizes a Store. Zero values take defaults.
type StoreConfig struct {
	// MaxSessions caps live sessions; creating past the cap evicts the
	// least-recently-used session (default 256).
	MaxSessions int
	// TTL expires sessions idle longer than this (default 15 minutes).
	TTL time.Duration
	// Solver bounds each session's incremental machinery.
	Solver SolverConfig
	// now overrides the clock in tests.
	now func() time.Time
}

func (c *StoreConfig) fillDefaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	c.Solver.fillDefaults()
	if c.now == nil {
		c.now = time.Now
	}
}

// Store owns the live sessions: id minting, TTL expiry, LRU eviction,
// and the per-session singleflight that collapses concurrent duplicates
// of one versioned delta batch.
type Store struct {
	mu      sync.Mutex
	cfg     StoreConfig
	byID    map[string]*list.Element // of *Session
	ll      *list.List               // front = most recently used
	idCtr   uint64
	idSeed  uint64
	flights singleflight.Group
	metrics *Metrics

	hookMu    sync.Mutex
	evictHook func(id string)
}

// SetEvictHook registers fn to run after each LRU eviction (capacity
// pressure, not TTL expiry or Close) with the evicted session's id. The
// cluster layer uses it to migrate an evicted session's op log to its
// replica set before the state becomes unreachable. fn runs outside the
// store lock and must not call back into the Store synchronously with
// work that needs the evicted session — it is already gone.
func (st *Store) SetEvictHook(fn func(id string)) {
	st.hookMu.Lock()
	st.evictHook = fn
	st.hookMu.Unlock()
}

func (st *Store) notifyEvict(ids []string) {
	if len(ids) == 0 {
		return
	}
	st.hookMu.Lock()
	fn := st.evictHook
	st.hookMu.Unlock()
	if fn == nil {
		return
	}
	for _, id := range ids {
		fn(id)
	}
}

// NewStore builds an empty Store counting into m (nil: unrendered
// counters, see NewMetrics).
func NewStore(cfg StoreConfig, m *Metrics) *Store {
	cfg.fillDefaults()
	if m == nil {
		m = NewMetrics(nil)
	}
	return &Store{
		cfg:     cfg,
		metrics: m,
		byID:    make(map[string]*list.Element),
		ll:      list.New(),
		idSeed:  uint64(time.Now().UnixNano()),
	}
}

// Metrics exposes the session counter set.
func (st *Store) Metrics() *Metrics { return st.metrics }

// Len reports the live session count.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ll.Len()
}

// mintID produces a unique session id (splitmix64 over a start-time seed
// and a counter; uniqueness within the store is what matters).
func (st *Store) mintID() string {
	st.idCtr++
	z := st.idSeed + st.idCtr*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return "s-" + strconv.FormatUint(z, 16)
}

// Create builds a session over base instance f (k overrides f.K when
// positive), registers it, and returns it with its initial solve done.
// baseHash is the WL canonical hash of f — the cluster routing key.
func (st *Store) Create(f *graph.File, k int, baseHash string) (*Session, error) {
	st.mu.Lock()
	id := st.mintID()
	st.mu.Unlock()
	return st.CreateWithID(id, f, k, baseHash)
}

// CreateWithID is Create under a caller-chosen id: the replication path
// — a cluster secondary rebuilding a session from its replicated op log
// — must preserve the id the primary minted, so the client's handle
// survives a primary death. An id that is already live is a 409
// ClientError (the session does not need rebuilding).
func (st *Store) CreateWithID(id string, f *graph.File, k int, baseHash string) (*Session, error) {
	// Build outside the store lock: creation solves the base instance.
	s, err := New(id, f, k, st.cfg.Solver, baseHash, st.metrics)
	if err != nil {
		return nil, err
	}

	st.mu.Lock()
	if _, exists := st.byID[id]; exists {
		st.mu.Unlock()
		return nil, Errf(http.StatusConflict, "session %q already exists", id)
	}
	now := st.cfg.now()
	st.expireLocked(now)
	s.lastUse = now
	st.byID[id] = st.ll.PushFront(s)
	var evicted []string
	for st.ll.Len() > st.cfg.MaxSessions {
		oldest := st.ll.Back()
		evicted = append(evicted, oldest.Value.(*Session).id)
		st.removeLocked(oldest)
		st.metrics.Evicted.Add(1)
	}
	st.mu.Unlock()
	st.notifyEvict(evicted)

	st.metrics.Created.Add(1)
	st.metrics.Active.Set(int64(st.Len()))
	return s, nil
}

// Get returns the live session by id, touching its LRU/TTL position. A
// missing, evicted, or expired id is a 404 ClientError.
func (st *Store) Get(id string) (*Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.cfg.now()
	st.expireLocked(now)
	el, ok := st.byID[id]
	if !ok {
		return nil, Errf(http.StatusNotFound, "unknown session %q (never created, expired, or evicted)", id)
	}
	s := el.Value.(*Session)
	s.lastUse = now
	st.ll.MoveToFront(el)
	return s, nil
}

// Close removes a session. Unknown ids are a 404 ClientError.
func (st *Store) Close(id string) error {
	st.mu.Lock()
	el, ok := st.byID[id]
	if ok {
		st.removeLocked(el)
	}
	st.mu.Unlock()
	if !ok {
		return Errf(http.StatusNotFound, "unknown session %q (never created, expired, or evicted)", id)
	}
	st.metrics.Closed.Add(1)
	st.metrics.Active.Set(int64(st.Len()))
	return nil
}

// Apply routes a delta batch to its session. When version is
// non-negative it is an optimistic-concurrency guard AND a singleflight
// key: concurrent duplicates of the same (session, version) batch
// collapse onto one application, and both callers receive the same
// rendered value from render (which runs once, under the session lock).
// A negative version applies unconditionally.
func (st *Store) Apply(id string, version int64, deltas []Delta, render func(*Solve) (any, error)) (any, error) {
	s, err := st.Get(id)
	if err != nil {
		return nil, err
	}
	run := func() (any, error) { return s.ApplyRender(version, deltas, render) }
	if version < 0 {
		return run()
	}
	v, err, _ := st.flights.Do(id+"|v"+strconv.FormatInt(version, 10), run)
	return v, err
}

// expireLocked drops sessions idle past the TTL. Caller holds st.mu.
func (st *Store) expireLocked(now time.Time) {
	for {
		el := st.ll.Back()
		if el == nil {
			break
		}
		s := el.Value.(*Session)
		if now.Sub(s.lastUse) <= st.cfg.TTL {
			break
		}
		st.removeLocked(el)
		st.metrics.Expired.Add(1)
	}
	st.metrics.Active.Set(int64(st.ll.Len()))
}

func (st *Store) removeLocked(el *list.Element) {
	s := el.Value.(*Session)
	delete(st.byID, s.id)
	st.ll.Remove(el)
}
