package main

// Request streams. Everything a run sends is generated here from the
// workload seed before the first timed request, so the same seed gives
// byte-identical streams (checked on every run by comparing the digests
// of the repeated set-ups).

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/session"
)

// Request kinds. The first three are the solve endpoints.
const (
	kindCoalesce = "coalesce"
	kindAllocate = "allocate"
	kindSpill    = "spill"
	kindCreate   = "create"
	kindDelta    = "delta"
	kindClose    = "close"
)

var solveKinds = []string{kindCoalesce, kindAllocate, kindSpill}

// Variants of a solve request's instance.
const (
	variantNovel     = "novel"     // not sent before in the run
	variantIdentical = "identical" // byte-identical repeat of a primed request
	variantRelabeled = "relabeled" // primed instance under a fresh vertex permutation
)

// coldFamilies generate a distinct graph per shard. permutation yields
// only three graphs, so it appears in hot sets only.
var coldFamilies = []string{
	"ssa", "ssa-reduced", "chordal", "interval", "ssa-pressure",
	"interval-pressure", "tiny", "er-sparse", "er-dense",
}

var hotFamilies = append([]string{"permutation"}, coldFamilies...)

// sessionFamilies seed the delta-session base graphs.
var sessionFamilies = []string{"chordal", "interval", "ssa-reduced", "tiny"}

// deltaBatch is the number of edit deltas one session request carries.
const deltaBatch = 4

// warmupShard offsets the corpus shards used for warm-up requests, so
// warm-up instances are never part of the timed set.
const warmupShard = 1 << 20

// request is one HTTP request of a stream, with what the checker needs
// to judge its answer.
type request struct {
	id      int
	kind    string
	body    []byte
	family  string
	variant string
	sess    *sessPlan // create, delta and close requests
	version int64     // delta: the session version the batch applies to
}

func (r *request) path() string {
	switch r.kind {
	case kindCreate, kindDelta, kindClose:
		return "/v1/coalesce/delta"
	}
	return "/v1/" + r.kind
}

func (r *request) isSolve() bool {
	return r.kind == kindCoalesce || r.kind == kindAllocate || r.kind == kindSpill
}

// sessPlan is one delta session: a base graph, its edit script, and the
// requests that carry it. Delta and close bodies name the session, so
// they are built once the create answer is in (bind).
type sessPlan struct {
	base   *graph.File
	deltas []session.Delta
	create *request
	reqs   []*request // delta batches in order, then the close
	id     string
}

// bind fills the session's delta and close bodies with its id and base
// hash.
func (s *sessPlan) bind(id, hash string) error {
	s.id = id
	for _, r := range s.reqs {
		var v any
		if r.kind == kindClose {
			v = service.DeltaRequest{Op: "close", SessionID: id, BaseHash: hash}
		} else {
			version := r.version
			lo := int(version) * deltaBatch
			v = service.DeltaRequest{Op: "delta", SessionID: id, BaseHash: hash, Version: &version,
				Deltas: s.deltas[lo : lo+deltaBatch]}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		r.body = b
	}
	return nil
}

// gen draws instances and requests from one seed.
type gen struct {
	seed   int64
	rng    *rand.Rand
	next   map[string]int
	nextID int
}

func newGen(seed int64) *gen {
	return &gen{seed: seed, rng: rand.New(rand.NewSource(seed)), next: map[string]int{}}
}

func (g *gen) id() int {
	g.nextID++
	return g.nextID
}

// shard generates the next unused corpus shard of a family. base offsets
// the shard index space (0 for timed instances, warmupShard for warm-up
// ones).
func (g *gen) shard(family string, base int) (*graph.File, error) {
	key := fmt.Sprintf("%s/%d", family, base)
	idx := base + g.next[key]
	g.next[key]++
	fam, ok := corpus.Lookup(family)
	if !ok {
		return nil, fmt.Errorf("unknown corpus family %q", family)
	}
	in, err := fam.Generate(corpus.Params{Seed: g.seed}, idx)
	if err != nil {
		return nil, err
	}
	return in.File, nil
}

// specOf converts an instance to the native JSON graph encoding.
func specOf(f *graph.File) *service.GraphSpec {
	s := &service.GraphSpec{Vertices: f.G.N(), K: f.K}
	for _, e := range f.G.Edges() {
		s.Edges = append(s.Edges, [2]int{int(e[0]), int(e[1])})
	}
	for _, a := range f.G.Affinities() {
		s.Moves = append(s.Moves, service.Move{X: int(a.X), Y: int(a.Y), Weight: a.Weight})
	}
	for v := 0; v < f.G.N(); v++ {
		if c, ok := f.G.Precolored(graph.V(v)); ok {
			s.Precolored = append(s.Precolored, service.Pin{V: v, Color: c})
		}
	}
	return s
}

// relabel renumbers a spec's vertices by a fresh random permutation.
func (g *gen) relabel(s *service.GraphSpec) *service.GraphSpec {
	perm := g.rng.Perm(s.Vertices)
	out := &service.GraphSpec{Vertices: s.Vertices, K: s.K}
	for _, e := range s.Edges {
		out.Edges = append(out.Edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	for _, m := range s.Moves {
		out.Moves = append(out.Moves, service.Move{X: perm[m.X], Y: perm[m.Y], Weight: m.Weight})
	}
	for _, p := range s.Precolored {
		out.Precolored = append(out.Precolored, service.Pin{V: perm[p.V], Color: p.Color})
	}
	return out
}

// instOf builds the checker's view of a spec.
func instOf(s *service.GraphSpec) *inst {
	moves := make([]move, len(s.Moves))
	for i, m := range s.Moves {
		w := m.Weight
		if w == 0 {
			w = 1
		}
		moves[i] = move{x: m.X, y: m.Y, w: w}
	}
	pins := map[int]int{}
	for _, p := range s.Precolored {
		pins[p.V] = p.Color
	}
	return newInst(s.Vertices, s.K, s.Edges, moves, pins)
}

// instOfBody builds the checker's view of the instance a solve request
// carries, from the bytes that were sent.
func instOfBody(body []byte) (*inst, error) {
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.Graph == nil {
		return nil, fmt.Errorf("request carries no graph")
	}
	return instOf(req.Graph), nil
}

// instOfFile builds the checker's view of a reference instance.
func instOfFile(f *graph.File) *inst {
	return instOf(specOf(f))
}

func (g *gen) solveRequest(kind, family, variant string, s *service.GraphSpec) (*request, error) {
	body, err := json.Marshal(service.Request{Graph: s, DeadlineMS: raceDeadlineMS})
	if err != nil {
		return nil, err
	}
	return &request{id: g.id(), kind: kind, body: body, family: family, variant: variant}, nil
}

// novel draws a request on a fresh shard of family.
func (g *gen) novel(kind, family string, base int) (*request, error) {
	f, err := g.shard(family, base)
	if err != nil {
		return nil, err
	}
	return g.solveRequest(kind, family, variantNovel, specOf(f))
}

// coldStream is n novel requests: rounds over every (family, endpoint)
// pair in a seeded order, each on a shard not used before.
func (g *gen) coldStream(n int) ([]*request, error) {
	var combos [][2]string
	for _, f := range coldFamilies {
		for _, k := range solveKinds {
			combos = append(combos, [2]string{f, k})
		}
	}
	out := make([]*request, 0, n)
	for len(out) < n {
		g.rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
		for _, c := range combos {
			if len(out) == n {
				break
			}
			r, err := g.novel(c[1], c[0], 0)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// hotKey is one primed (instance, endpoint) pair.
type hotKey struct {
	kind, family string
	spec         *service.GraphSpec
	prime        *request
}

// hotSet draws perFamily instances of every hot family, the endpoints
// taking turns, each primed once.
func (g *gen) hotSet(perFamily int) ([]*hotKey, error) {
	var keys []*hotKey
	for _, fam := range hotFamilies {
		for i := 0; i < perFamily; i++ {
			f, err := g.shard(fam, 0)
			if err != nil {
				return nil, err
			}
			s := specOf(f)
			kind := solveKinds[len(keys)%len(solveKinds)]
			r, err := g.solveRequest(kind, fam, variantNovel, s)
			if err != nil {
				return nil, err
			}
			keys = append(keys, &hotKey{kind: kind, family: fam, spec: s, prime: r})
		}
	}
	return keys, nil
}

// repeat draws a repeat of a hot key: the primed bytes, or the instance
// under a fresh permutation.
func (g *gen) repeat(k *hotKey, relabeled bool) (*request, error) {
	if !relabeled {
		r := *k.prime
		r.id = g.id()
		r.variant = variantIdentical
		return &r, nil
	}
	return g.solveRequest(k.kind, k.family, variantRelabeled, g.relabel(k.spec))
}

// warmStream is n repeats of uniformly drawn hot keys, a share of them
// relabeled.
func (g *gen) warmStream(n int, keys []*hotKey, relabelShare float64) ([]*request, error) {
	out := make([]*request, 0, n)
	for len(out) < n {
		k := keys[g.rng.Intn(len(keys))]
		r, err := g.repeat(k, g.rng.Float64() < relabelShare)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// editMix shapes a stream of reads and session writes.
type editMix struct {
	writeShare float64 // share of requests that are session requests
	novelShare float64 // share of reads on never-sent instances
	zipfS      float64 // popularity skew over the hot keys
	zipfV      float64 // popularity offset: P(rank k) ∝ (zipfV + k)^-zipfS
	// relabelings is how many numberings each hot key is read under.
	relabelings int
	sessions    int
}

// editStream draws n requests, a share of them session requests spread
// round-robin over mix.sessions sessions. Each session's script is long
// enough for its slots; its last slot closes it.
func (g *gen) editStream(n int, keys []*hotKey, mix editMix) ([]*request, []*sessPlan, error) {
	var zipf *rand.Zipf
	if len(keys) > 1 {
		// Popularity rank is a seeded shuffle of the hot set, so the
		// hottest keys are not always the first family's.
		keys = append([]*hotKey(nil), keys...)
		g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		zipf = rand.NewZipf(g.rng, mix.zipfS, mix.zipfV, uint64(len(keys)-1))
	}
	// Each hot key is read under at most mix.relabelings numberings, as
	// when the same function reaches the cluster from a few different
	// compilations.
	numberings := map[*hotKey][]*request{}
	out := make([]*request, n)
	slots := make([][]int, mix.sessions) // stream positions of each session's slots
	writes := 0
	for i := 0; i < n; i++ {
		if g.rng.Float64() < mix.writeShare {
			s := writes % mix.sessions
			writes++
			slots[s] = append(slots[s], i)
			continue
		}
		var r *request
		var err error
		if zipf == nil || g.rng.Float64() < mix.novelShare {
			fam := coldFamilies[g.rng.Intn(len(coldFamilies))]
			r, err = g.novel(solveKinds[g.rng.Intn(len(solveKinds))], fam, 0)
		} else {
			k := keys[zipf.Uint64()]
			if len(numberings[k]) < mix.relabelings {
				r, err = g.repeat(k, true)
				numberings[k] = append(numberings[k], r)
			} else {
				c := *numberings[k][g.rng.Intn(mix.relabelings)]
				c.id = g.id()
				r = &c
			}
		}
		if err != nil {
			return nil, nil, err
		}
		out[i] = r
	}
	var plans []*sessPlan
	for s, pos := range slots {
		if len(pos) == 0 {
			continue
		}
		sp, err := g.sessionPlan(sessionFamilies[s%len(sessionFamilies)], len(pos)-1)
		if err != nil {
			return nil, nil, err
		}
		for j, p := range pos {
			r := &request{id: g.id(), kind: kindDelta, sess: sp, version: int64(j)}
			if j == len(pos)-1 {
				r.kind = kindClose
			}
			sp.reqs = append(sp.reqs, r)
			out[p] = r
		}
		plans = append(plans, sp)
	}
	return out, plans, nil
}

// sessionPlan draws a base graph of family fam and an edit script of
// batches batches.
func (g *gen) sessionPlan(fam string, batches int) (*sessPlan, error) {
	f, err := g.shard(fam, 0)
	if err != nil {
		return nil, err
	}
	sp := &sessPlan{base: f, deltas: corpus.GenEditScript(f, 0, g.rng.Int63(), batches*deltaBatch)}
	body, err := json.Marshal(service.DeltaRequest{Op: "create", Graph: specOf(f)})
	if err != nil {
		return nil, err
	}
	sp.create = &request{id: g.id(), kind: kindCreate, body: body, family: fam, sess: sp}
	return sp, nil
}

// warmups draws n novel requests on the warm-up shards.
func (g *gen) warmups(n int) ([]*request, error) {
	out := make([]*request, 0, n)
	for i := 0; i < n; i++ {
		fam := coldFamilies[i%len(coldFamilies)]
		r, err := g.novel(solveKinds[i%len(solveKinds)], fam, warmupShard)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// digest hashes everything a stream carries that comes from the seed:
// request kinds and bodies, session base graphs and edit scripts.
// Session ids are minted by the server, so delta bodies are hashed
// through their scripts instead.
func digest(streams ...[]*request) [32]byte {
	h := sha256.New()
	seen := map[*sessPlan]bool{}
	for _, st := range streams {
		for _, r := range st {
			fmt.Fprintf(h, "%s|%s|", r.kind, r.variant)
			if r.sess == nil {
				h.Write(r.body)
				continue
			}
			if !seen[r.sess] {
				seen[r.sess] = true
				h.Write(r.sess.create.body)
				b, _ := json.Marshal(r.sess.deltas)
				h.Write(b)
			}
			fmt.Fprintf(h, "%d", r.version)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// canonicalDupShare is the share of a stream's solve requests whose
// (endpoint, canonical instance) was already sent earlier in the stream:
// the requests a perfect canonical cache could answer.
func canonicalDupShare(reqs []*request) (float64, int) {
	seen := map[string]bool{}
	dups, n := 0, 0
	for _, r := range reqs {
		if !r.isSolve() {
			continue
		}
		var req service.Request
		if json.Unmarshal(r.body, &req) != nil {
			continue
		}
		f, err := req.Graph.ToFile()
		if err != nil {
			continue
		}
		key := r.kind + "|" + graph.CanonicalHash(f)
		if seen[key] {
			dups++
		}
		seen[key] = true
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return float64(dups) / float64(n), n
}

// aliveIDs replays a script's vertex births and deaths: the alive
// session ids in increasing order, and the size of the id space.
func aliveIDs(n0 int, deltas []session.Delta) ([]int, int) {
	alive := make([]bool, n0)
	for i := range alive {
		alive[i] = true
	}
	for _, d := range deltas {
		switch d.Op {
		case session.OpAddVertex:
			alive = append(alive, true)
		case session.OpRemoveVertex:
			alive[d.U] = false
		}
	}
	var ids []int
	for v, a := range alive {
		if a {
			ids = append(ids, v)
		}
	}
	sort.Ints(ids)
	return ids, len(alive)
}
