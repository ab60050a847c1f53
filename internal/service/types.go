package service

import (
	"fmt"
	"strings"

	"regcoal/internal/graph"
)

// Wire schema of the online coalescing API. Responses are rendered through
// a single deterministic path (see render.go) so that a repeated instance
// is answered with a byte-identical body whether it was computed or served
// from the cache; anything non-deterministic (timing, cache disposition)
// travels in headers, never in the body.

// Move is a weighted move edge in a native-JSON graph.
type Move struct {
	X      int   `json:"x"`
	Y      int   `json:"y"`
	Weight int64 `json:"weight,omitempty"`
}

// Pin precolors a vertex.
type Pin struct {
	V     int `json:"v"`
	Color int `json:"color"`
}

// GraphSpec carries an interference graph in one of three encodings:
// native JSON (vertices/edges/moves/precolored), the textual challenge
// format (text), or DIMACS .col with regcoal comments (dimacs). Exactly
// one encoding must be used.
type GraphSpec struct {
	Vertices   int      `json:"vertices,omitempty"`
	Names      []string `json:"names,omitempty"`
	Edges      [][2]int `json:"edges,omitempty"`
	Moves      []Move   `json:"moves,omitempty"`
	Precolored []Pin    `json:"precolored,omitempty"`
	K          int      `json:"k,omitempty"`

	Text   string `json:"text,omitempty"`
	Dimacs string `json:"dimacs,omitempty"`
}

// ToFile decodes the spec into an instance.
func (s *GraphSpec) ToFile() (*graph.File, error) {
	encodings := 0
	if s.Text != "" {
		encodings++
	}
	if s.Dimacs != "" {
		encodings++
	}
	native := s.Vertices > 0 || len(s.Edges) > 0 || len(s.Names) > 0 ||
		len(s.Moves) > 0 || len(s.Precolored) > 0 || s.K > 0
	if native {
		encodings++
	}
	if encodings > 1 {
		// Mixing encodings would silently drop the loser's fields (e.g.
		// native pins alongside a dimacs payload); refuse instead.
		return nil, fmt.Errorf("graph: use exactly one of native fields, text, dimacs")
	}
	switch {
	case s.Text != "":
		return graph.ReadFrom(strings.NewReader(s.Text))
	case s.Dimacs != "":
		return graph.ReadDIMACSFile(strings.NewReader(s.Dimacs))
	default:
		return s.toNativeFile()
	}
}

func (s *GraphSpec) toNativeFile() (*graph.File, error) {
	n := s.Vertices
	if len(s.Names) > n {
		n = len(s.Names)
	}
	if n == 0 {
		return nil, fmt.Errorf("graph: empty native graph (set vertices or names)")
	}
	g := graph.New(n)
	for i, name := range s.Names {
		g.SetName(graph.V(i), name)
	}
	inRange := func(v int) error {
		if v < 0 || v >= n {
			return fmt.Errorf("graph: vertex %d out of range [0,%d)", v, n)
		}
		return nil
	}
	for _, e := range s.Edges {
		if err := inRange(e[0]); err != nil {
			return nil, err
		}
		if err := inRange(e[1]); err != nil {
			return nil, err
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-loop on vertex %d", e[0])
		}
		g.AddEdge(graph.V(e[0]), graph.V(e[1]))
	}
	for _, m := range s.Moves {
		if err := inRange(m.X); err != nil {
			return nil, err
		}
		if err := inRange(m.Y); err != nil {
			return nil, err
		}
		w := m.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, fmt.Errorf("graph: negative move weight %d", w)
		}
		g.AddAffinity(graph.V(m.X), graph.V(m.Y), w)
	}
	for _, p := range s.Precolored {
		if err := inRange(p.V); err != nil {
			return nil, err
		}
		if p.Color < 0 {
			return nil, fmt.Errorf("graph: negative precolor %d", p.Color)
		}
		g.SetPrecolored(graph.V(p.V), p.Color)
	}
	return &graph.File{G: g, K: s.K}, nil
}

// Request is the body of POST /v1/coalesce and POST /v1/allocate. Either
// Graph (single instance) or Batch (many) must be set.
type Request struct {
	Graph *GraphSpec `json:"graph,omitempty"`
	// K overrides the register count carried by the graph encoding.
	K int `json:"k,omitempty"`
	// DeadlineMS bounds the strategy race; 0 uses the server default,
	// values above the server maximum are clamped.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Strategies restricts the race to these members of the endpoint's
	// strategy table; empty runs the server's portfolio.
	Strategies []string `json:"strategies,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Batch dispatches each element as its own job on the worker pool and
	// collects all results. Elements must not themselves carry batches.
	Batch []Request `json:"batch,omitempty"`
}

// CoalesceResult is the body of a successful /v1/coalesce response.
type CoalesceResult struct {
	Hash     string `json:"hash"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Moves    int    `json:"moves"`
	K        int    `json:"k"`

	// Strategy is the portfolio member whose answer won the race.
	Strategy        string `json:"strategy"`
	CoalescedMoves  int    `json:"coalesced_moves"`
	CoalescedWeight int64  `json:"coalesced_weight"`
	RemainingWeight int64  `json:"remaining_weight"`
	Colorable       bool   `json:"colorable"`
	// DeadlineHit records that the race was cut off and the answer is the
	// best found, not necessarily the best the full portfolio could do.
	DeadlineHit bool `json:"deadline_hit"`

	// Classes is the coalescing: vertex classes in request numbering.
	Classes [][]int `json:"classes"`
	// Coloring assigns a register per vertex when Colorable.
	Coloring []int `json:"coloring,omitempty"`
}

// SpillResult is the body of a successful /v1/spill response: the spill
// set that lowers the instance to a greedy-k-colorable one, and a proper
// k-coloring of the residual (spilled vertices get -1).
type SpillResult struct {
	Hash     string `json:"hash"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Moves    int    `json:"moves"`
	K        int    `json:"k"`

	Strategy string `json:"strategy"`
	// Spilled lists the evicted vertices (request numbering, sorted).
	Spilled []int `json:"spilled,omitempty"`
	Spills  int   `json:"spills"`
	// SpillCost is the total eviction cost (== Spills under unit costs).
	SpillCost int64 `json:"spill_cost"`
	// Optimal marks a spill set proven cost-minimal (exact member won
	// with a completed search).
	Optimal     bool  `json:"optimal"`
	Coloring    []int `json:"coloring"`
	DeadlineHit bool  `json:"deadline_hit"`
}

// AllocateResult is the body of a successful /v1/allocate response.
type AllocateResult struct {
	Hash     string `json:"hash"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Moves    int    `json:"moves"`
	K        int    `json:"k"`

	Strategy        string `json:"strategy"`
	Coloring        []int  `json:"coloring"`
	Spilled         []int  `json:"spilled,omitempty"`
	Spills          int    `json:"spills"`
	CoalescedWeight int64  `json:"coalesced_weight"`
	RemainingWeight int64  `json:"remaining_weight"`
	DeadlineHit     bool   `json:"deadline_hit"`
}

// BatchSolveRequest is the body of POST /v1/batch: one kind applied to
// many single-graph requests, decoded once and fanned out on the worker
// pool (and, in cluster mode, across shards).
type BatchSolveRequest struct {
	// Kind selects the portfolio: "coalesce" (default), "allocate", "spill".
	Kind string `json:"kind,omitempty"`
	// Items are the instances to solve, answered in order.
	Items []Request `json:"items"`
}

// BatchEntry is one element of a batch response: exactly one of the result
// fields, or Error.
type BatchEntry struct {
	Coalesce *CoalesceResult `json:"coalesce,omitempty"`
	Allocate *AllocateResult `json:"allocate,omitempty"`
	Spill    *SpillResult    `json:"spill,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchResponse is the body of a batch request's response, results in
// request order.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
