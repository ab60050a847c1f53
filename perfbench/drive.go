package main

// Load generation: one process, at most `conns` connections. The open
// loop sends each request when it is due and times it from its due
// time; the closed loop sends each connection's next request as soon as
// its previous answer is in.

import (
	"bytes"
	"io"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"regcoal/internal/service"
)

// outcome is what became of one request. Times are nanoseconds from the
// start of the phase that sent it.
type outcome struct {
	sent, done int64
	due        int64 // open loop only; -1 otherwise
	status     int
	err        error
	body       []byte
	cache      string // X-Regcoal-Cache
	shard      string // X-Regcoal-Shard
	tier       string // X-Regcoal-Tier: local, peer or compute
	phases     string // X-Regcoal-Phases
	// bad is the checker's verdict, filled in after the phase.
	bad error
	v   verdict
}

// latency is the time the client waited: from the due time in the open
// loop, from sending otherwise.
func (o *outcome) latency() int64 {
	if o.due >= 0 {
		return o.done - o.due
	}
	return o.done - o.sent
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK && o.bad == nil }

// target is a server reached over loopback HTTP.
type target struct {
	base   string
	client *http.Client
}

func newTarget(base string, maxConns int) *target {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &target{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// do sends one request. traced opts the answer into the server's
// solve timeline.
func (t *target) do(r *request, epoch time.Time, traced bool) outcome {
	o := outcome{due: -1}
	req, err := http.NewRequest(http.MethodPost, t.base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(service.TraceHeader, "1")
	}
	o.sent = int64(time.Since(epoch))
	resp, err := t.client.Do(req)
	if err != nil {
		o.err = err
		o.done = int64(time.Since(epoch))
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = int64(time.Since(epoch))
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Regcoal-Cache")
	o.shard = resp.Header.Get("X-Regcoal-Shard")
	o.tier = resp.Header.Get("X-Regcoal-Tier")
	o.phases = resp.Header.Get(service.PhasesHeader)
	return o
}

// sequential sends requests one after another on one connection.
func (t *target) sequential(reqs []*request, traced bool) []outcome {
	outs := make([]outcome, len(reqs))
	epoch := time.Now()
	for i, r := range reqs {
		outs[i] = t.do(r, epoch, traced)
	}
	return outs
}

// sessionOrder returns, for each request, the index of the previous
// request of the same delta session (-1 if none): a session's batches
// must be applied in order, so each waits for its predecessor.
func sessionOrder(reqs []*request) []int {
	prev := make([]int, len(reqs))
	last := map[*sessPlan]int{}
	for i, r := range reqs {
		prev[i] = -1
		if r.sess == nil {
			continue
		}
		if p, ok := last[r.sess]; ok {
			prev[i] = p
		}
		last[r.sess] = i
	}
	return prev
}

// dispatch runs the requests on `conns` connections, handing each free
// connection the next request in stream order. due(i) gives the time
// request i may go out (nil: at once); stop(i) ends the run before
// request i is sent. It returns each request's outcome and whether it
// was sent.
func (t *target) dispatch(reqs []*request, conns int, traced bool,
	due func(i int) time.Duration, stop func(elapsed time.Duration) bool) ([]outcome, []bool) {
	outs := make([]outcome, len(reqs))
	sent := make([]bool, len(reqs))
	prev := sessionOrder(reqs)
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	epoch := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				d := time.Duration(-1)
				if due != nil {
					d = due(i)
					if wait := d - time.Since(epoch); wait > 0 {
						time.Sleep(wait)
					}
				}
				if p := prev[i]; p >= 0 {
					<-done[p]
					if !sent[p] {
						close(done[i])
						continue
					}
				}
				if stop != nil && stop(time.Since(epoch)) {
					close(done[i])
					continue
				}
				outs[i] = t.do(reqs[i], epoch, traced)
				outs[i].due = int64(d)
				sent[i] = true
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return outs, sent
}

// openLoop sends request i at i/rate seconds after the phase starts on
// the first free connection; a request that falls due while every
// connection is busy goes out late, and the wait counts in its latency.
func (t *target) openLoop(reqs []*request, rate float64, conns int, traced bool) []outcome {
	outs, _ := t.dispatch(reqs, conns, traced, func(i int) time.Duration {
		return time.Duration(float64(i) / rate * float64(time.Second))
	}, nil)
	return outs
}

// closedLoop keeps every connection busy, each sending its next request
// as soon as its previous answer is in, until dur has passed.
func (t *target) closedLoop(reqs []*request, conns int, dur time.Duration) ([]outcome, []bool) {
	return t.dispatch(reqs, conns, false, nil, func(elapsed time.Duration) bool { return elapsed >= dur })
}

// heapSampler records the peak of the process's live Go heap: the heap
// still reachable at the end of each GC cycle, which does not depend on
// when the collector happens to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}
