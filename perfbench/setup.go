package main

// Set-up: everything before the first timed request. Streams are drawn
// from the seed, servers started, the hot set primed and the delta
// sessions created. setup_s times exactly this.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/service"
)

// Stream names, in the order they are drawn and hashed.
var (
	untracedStreams = []string{"warm-open", "open", "warm-closed", "closed"}
	tracedStreams   = []string{"warm-u", "u", "warm-t", "t", "probe", "replay"}
)

// env is one set-up: servers, client, and the streams to send.
type env struct {
	keys     []*hotKey
	names    []string
	streams  map[string][]*request
	sessions []*sessPlan

	node *node
	cl   *cluster.InProcess
	tgt  *target

	// prime and creates were sent during set-up; their answers are
	// checked with the rest once the timed phases are over.
	prime, creates       []*request
	primeOut, createsOut []outcome
}

// node is a single service on a loopback listener.
type node struct {
	svc  *service.Server
	srv  *http.Server
	url  string
	done chan struct{}
}

func startNode() (*node, error) {
	svc, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	n := &node{svc: svc, srv: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	<-n.done
	n.svc.Close()
}

// phaseSeconds splits a run's measured seconds between its streams. The
// traced run of a single-node workload also sends the delta probe and
// replays its traffic through a cluster.
func phaseSeconds(w *workload, secs float64, traced bool) map[string]float64 {
	if !traced {
		return map[string]float64{"open": secs * w.openShare, "closed": secs * (1 - w.openShare)}
	}
	if w.cluster {
		return map[string]float64{"u": secs * 0.4, "t": secs * 0.4}
	}
	return map[string]float64{"u": secs * 0.3, "t": secs * 0.3, "probe": secs * 0.1, "replay": secs * 0.2}
}

// drawStreams generates every stream of one run from the seed.
func drawStreams(w *workload, seed int64, secs float64, traced bool) (*env, error) {
	g := newGen(seed)
	e := &env{streams: map[string][]*request{}, names: untracedStreams}
	if traced {
		e.names = tracedStreams
	}
	if w.hotPerFamily > 0 {
		keys, err := g.hotSet(w.hotPerFamily)
		if err != nil {
			return nil, err
		}
		e.keys = keys
		for _, k := range keys {
			e.prime = append(e.prime, k.prime)
		}
	}
	// main draws n requests of the workload's own traffic.
	main := func(n int) ([]*request, []*sessPlan, error) {
		switch {
		case w.cluster:
			return g.editStream(n, e.keys, w.mix)
		case w.hotPerFamily > 0:
			reqs, err := g.warmStream(n, e.keys, w.relabelShare)
			return reqs, nil, err
		default:
			reqs, err := g.coldStream(n)
			return reqs, nil, err
		}
	}
	secsOf := phaseSeconds(w, secs, traced)
	for _, name := range e.names {
		var reqs []*request
		var plans []*sessPlan
		var err error
		switch name {
		case "warm-open", "warm-closed", "warm-u", "warm-t":
			reqs, err = g.warmups(warmupRequests)
		case "open", "u", "t", "replay":
			reqs, plans, err = main(int(w.rate * secsOf[name]))
		case "closed":
			// Half as much again as the estimated capacity, so the
			// stream does not run dry.
			reqs, plans, err = main(int(1.5 * w.capacity * secsOf[name]))
		case "probe":
			reqs, plans, err = g.editStream(int(probeRate*secsOf[name]), nil,
				editMix{writeShare: 1, sessions: probeSessions})
		}
		if err != nil {
			return nil, fmt.Errorf("drawing stream %s: %w", name, err)
		}
		e.streams[name] = reqs
		e.sessions = append(e.sessions, plans...)
	}
	for _, sp := range e.sessions {
		e.creates = append(e.creates, sp.create)
	}
	return e, nil
}

// setUp draws the streams, starts the servers, primes the hot set and
// creates the sessions.
func setUp(w *workload, seed int64, secs float64, traced bool) (*env, error) {
	e, err := drawStreams(w, seed, secs, traced)
	if err != nil {
		return nil, err
	}
	if w.cluster {
		e.cl, err = cluster.StartInProcess(3, cluster.InProcessOptions{})
		if err != nil {
			return nil, err
		}
		e.tgt = newTarget(e.cl.RouterURL, conns)
	} else {
		e.node, err = startNode()
		if err != nil {
			return nil, err
		}
		e.tgt = newTarget(e.node.url, conns)
	}
	e.primeOut = e.tgt.sequential(e.prime, traced)
	if err := e.createSessions(e.tgt, e.creates); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// createSessions sends the create requests and binds each session's
// later requests to the id the server minted.
func (e *env) createSessions(t *target, creates []*request) error {
	e.createsOut = t.sequential(creates, false)
	for i, r := range creates {
		o := &e.createsOut[i]
		if o.err != nil || o.status != http.StatusOK {
			return fmt.Errorf("creating session: status %d, %v: %s", o.status, o.err, o.body)
		}
		var a deltaAnswer
		if err := json.Unmarshal(o.body, &a); err != nil {
			return fmt.Errorf("creating session: %v", err)
		}
		if err := r.sess.bind(a.SessionID, a.BaseHash); err != nil {
			return err
		}
	}
	return nil
}

// digest hashes every stream the set-up drew, in draw order.
func (e *env) digest() [32]byte {
	all := [][]*request{e.prime, e.creates}
	for _, name := range e.names {
		all = append(all, e.streams[name])
	}
	return digest(all...)
}

func (e *env) close() {
	if e.tgt != nil {
		e.tgt.close()
	}
	if e.node != nil {
		e.node.close()
	}
	if e.cl != nil {
		e.cl.Close()
	}
}
