package expt

import (
	"context"
	"fmt"
	"math/rand"

	"regcoal/internal/coalesce"
	"regcoal/internal/corpus"
	"regcoal/internal/engine"
	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/ir"
	"regcoal/internal/regalloc"
	"regcoal/internal/ssa"
)

func init() {
	Register(Experiment{ID: "F3", Title: "Figure 3: local conservative rules are not enough", Run: runF3})
	Register(Experiment{ID: "CH", Title: "Coalescing challenge: strategy comparison on SSA-derived and synthetic instances", Run: runCH})
	Register(Experiment{ID: "IRC", Title: "End-to-end Chaitin-style allocation: spills and moves by coalescing mode", Run: runIRC})
	Register(Experiment{ID: "ABL", Title: "Ablations: George pairing, brute force test, extended George, de-coalescing order", Run: runABL})
}

// coalesceChordal adapts the Theorem 5 decision for the tables.
func coalesceChordal(g *graph.Graph, x, y graph.V, k int) (bool, error) {
	dec, err := coalesce.ChordalIncremental(g, x, y, k)
	if err != nil {
		return false, err
	}
	return dec.OK, nil
}

func coalesceChordalColoring(g *graph.Graph, x, y graph.V, k int) (graph.Coloring, bool, error) {
	return coalesce.ChordalIncrementalColoring(g, x, y, k)
}

func runF3(cfg Config) ([]*Table, error) {
	permTable := &Table{
		Title:  "Permutation gadget (boosted): per-move verdicts with k = 2(p-1)",
		Note:   "Paper claim: Briggs and George reject every move; coalescing all p moves at once is safe.",
		Header: []string{"p", "k", "briggs accepts", "george accepts", "brute(single) accepts", "brute(set) safe"},
	}
	sizes := []int{3, 4, 5}
	if cfg.Quick {
		sizes = []int{3, 4}
	}
	for _, p := range sizes {
		g, k, moves := coalesce.Fig3Permutation(p)
		briggs, george, brute := 0, 0, 0
		empty := graph.NewPartition(g.N())
		for _, a := range moves {
			if coalesce.BriggsOK(g, a.X, a.Y, k) {
				briggs++
			}
			if coalesce.GeorgeOK(g, a.X, a.Y, k) || coalesce.GeorgeOK(g, a.Y, a.X, k) {
				george++
			}
			if coalesce.BruteOK(g, empty, a.X, a.Y, k) {
				brute++
			}
		}
		setOK := coalesce.BruteSetOK(g, empty, moves, k)
		permTable.Add(p, k,
			fmt.Sprintf("%d/%d", briggs, len(moves)),
			fmt.Sprintf("%d/%d", george, len(moves)),
			fmt.Sprintf("%d/%d", brute, len(moves)),
			fmt.Sprintf("%v", setOK))
	}

	triTable := &Table{
		Title:  "Triangle gadget: incremental trap",
		Note:   "Paper claim: coalescing (a,b) and (a,c) together is safe; either alone breaks greedy-3-colorability.",
		Header: []string{"move", "single safe (exact per-move test)", "both together safe"},
	}
	g, k, moves := coalesce.Fig3Triangle()
	empty := graph.NewPartition(g.N())
	both := coalesce.BruteSetOK(g, empty, moves, k)
	for _, a := range moves {
		triTable.Add(
			fmt.Sprintf("(%s,%s)", g.Name(a.X), g.Name(a.Y)),
			fmt.Sprintf("%v", coalesce.BruteOK(g, empty, a.X, a.Y, k)),
			fmt.Sprintf("%v", both))
	}
	escape := &Table{
		Title:  "Escaping the trap with transitivity sets (§4 remark)",
		Header: []string{"driver", "moves coalesced on the triangle gadget"},
	}
	escape.Add("single-move brute", len(coalesce.Conservative(g, k, coalesce.TestBrute).Coalesced))
	escape.Add("set driver (pairs)", len(coalesce.ConservativeSets(g, k, 2).Coalesced))
	return []*Table{permTable, triTable, escape}, nil
}

// chCorpus builds the challenge corpus for the engine-backed experiments:
// the fixed-k (Appel–George style) families.
const chFamilies = "ssa,ssa-reduced,er-sparse,er-dense"

func chCorpus(cfg Config) ([]*corpus.Instance, error) {
	fams, err := corpus.Select(chFamilies)
	if err != nil {
		return nil, err
	}
	return corpus.BuildAll(fams, corpus.Params{Seed: cfg.Seed, Quick: cfg.Quick})
}

// engineConfig adapts an experiment Config for the execution engine.
// Timing stays off so experiment tables are identical at any parallelism.
func engineConfig(cfg Config) engine.Config {
	return engine.Config{Parallel: cfg.Parallel}
}

// biasedRunner is biased coloring on top of local-rule coalescing (§1
// mentions biased coloring as the cheap way to catch leftovers): moves
// whose endpoints happen to get one color also disappear.
func biasedRunner() engine.Runner {
	return engine.Runner{
		Name: "b+g & biased select",
		Run: func(_ context.Context, f *graph.File) (engine.RunStats, error) {
			g, k := f.G, f.K
			cons := coalesce.Conservative(g, k, coalesce.TestBriggsGeorge)
			stats := engine.RunStats{
				CoalescedWeight: cons.CoalescedWeight,
				CoalescedMoves:  len(cons.Coalesced),
				ResidualWeight:  cons.RemainingWeight,
				GreedyAfter:     cons.Colorable,
				Rounds:          cons.Rounds,
			}
			if q, old2new, err := graph.Quotient(g, cons.P); err == nil {
				if qcol, ok := greedy.ColorBiased(q, k); ok {
					lifted := qcol.Lift(old2new)
					count, w := lifted.CoalescedMoves(g)
					stats.CoalescedWeight = w
					stats.CoalescedMoves = count
					stats.ResidualWeight = g.TotalAffinityWeight() - w
					stats.GreedyAfter = true
				}
			}
			return stats, nil
		},
	}
}

// runCH fans the full strategy matrix over the challenge corpus on the
// execution engine (one record per instance × strategy, rolled up here),
// replacing the old one-instance-at-a-time loop.
func runCH(cfg Config) ([]*Table, error) {
	insts, err := chCorpus(cfg)
	if err != nil {
		return nil, err
	}
	runners := append(engine.StrategyRunners(), engine.Columns("irc")[0], biasedRunner())
	recs, err := engine.Run(context.Background(), engineConfig(cfg), insts, runners, nil)
	if err != nil {
		return nil, err
	}
	// Roll up across families, preserving matrix order.
	type sums struct {
		weight    int64
		colorable int
	}
	perStrategy := map[string]*sums{}
	var totalWeight int64
	for _, r := range recs {
		s, ok := perStrategy[r.Strategy]
		if !ok {
			s = &sums{}
			perStrategy[r.Strategy] = s
		}
		s.weight += r.CoalescedWeight
		if r.GreedyAfter {
			s.colorable++
		}
		if r.Strategy == runners[0].Name {
			totalWeight += r.MoveWeight
		}
	}
	t := &Table{
		Title: fmt.Sprintf("Move weight coalesced over a %d-instance corpus (families %s, total movable weight %d)",
			len(insts), chFamilies, totalWeight),
		Note: "Paper claims reproduced: aggressive coalesces the most weight but may break colorability;\n" +
			"brute-force conservative ≥ Briggs/George local rules; optimistic competes with brute while staying colorable.",
		Header: []string{"strategy", "weight coalesced", "share of movable", "colorable instances"},
	}
	for _, r := range runners {
		s := perStrategy[r.Name]
		t.Add(r.Name, s.weight, pct(s.weight, totalWeight),
			fmt.Sprintf("%d/%d", s.colorable, len(insts)))
	}
	return []*Table{t}, nil
}

func runIRC(cfg Config) ([]*Table, error) {
	trials := 25
	if cfg.Quick {
		trials = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		Title:  "End-to-end allocation of random lowered programs",
		Note:   "Moves removed/kept and spilled registers by coalescing mode, k sweep.",
		Header: []string{"k", "mode", "programs", "moves removed", "moves kept", "spilled regs", "avg rounds"},
	}
	modes := []regalloc.Mode{regalloc.ModeNone, regalloc.ModeConservative, regalloc.ModeBrute, regalloc.ModeOptimistic, regalloc.ModeAggressive}
	for _, k := range []int{4, 6, 8} {
		// Pre-generate the same programs for every mode.
		var lows []*ir.Func
		for i := 0; i < trials; i++ {
			p := ir.DefaultRandomParams()
			p.Vars = 6
			p.Blocks = 6
			fn := ir.Random(rng, p)
			_, low, err := ssa.Pipeline(fn)
			if err != nil {
				return nil, err
			}
			lows = append(lows, low)
		}
		for _, mode := range modes {
			removed, kept, spilled, rounds, okCount := 0, 0, 0, 0, 0
			for _, low := range lows {
				res, err := regalloc.Function(low, k, mode)
				if err != nil {
					continue // k too small for this instance+mode
				}
				okCount++
				removed += res.MovesRemoved
				kept += res.MovesKept
				spilled += res.SpilledRegs
				rounds += res.Rounds
			}
			if okCount == 0 {
				t.Add(k, mode.String(), 0, "-", "-", "-", "-")
				continue
			}
			t.Add(k, mode.String(), okCount, removed, kept, spilled,
				fmt.Sprintf("%.2f", float64(rounds)/float64(okCount)))
		}
	}
	return []*Table{t}, nil
}

func runABL(cfg Config) ([]*Table, error) {
	insts, err := chCorpus(cfg)
	if err != nil {
		return nil, err
	}
	// The ablation columns ride the engine as custom runners alongside the
	// standard conservative ones.
	ordered := func(name string, order coalesce.DecoalesceOrder) engine.Runner {
		return engine.Runner{
			Name: name,
			Run: func(_ context.Context, f *graph.File) (engine.RunStats, error) {
				res := coalesce.OptimisticOrdered(f.G, f.K, order)
				return engine.RunStats{
					CoalescedWeight: res.CoalescedWeight,
					CoalescedMoves:  len(res.Coalesced),
					ResidualWeight:  res.RemainingWeight,
					GreedyAfter:     res.Colorable,
					Rounds:          res.Rounds,
				}, nil
			},
		}
	}
	var runners []engine.Runner
	for _, r := range engine.StrategyRunners() {
		switch r.Name {
		case "briggs", "briggs+george", "ext-george", "brute":
			runners = append(runners, r)
		}
	}
	runners = append(runners,
		ordered("opti-witness", coalesce.DecoalesceWitnessMinWeight),
		ordered("opti-global", coalesce.DecoalesceGlobalMinWeight))
	recs, err := engine.Run(context.Background(), engineConfig(cfg), insts, runners, nil)
	if err != nil {
		return nil, err
	}
	weight := map[string]int64{}
	for _, r := range recs {
		weight[r.Strategy] += r.CoalescedWeight
	}
	t := &Table{
		Title:  "Ablations over the challenge corpus (coalesced move weight)",
		Header: []string{"ablation", "variant", "weight coalesced"},
	}
	t.Add("george pairing (§4: use George for any pair)", "briggs only", weight["briggs"])
	t.Add("", "briggs+george", weight["briggs+george"])
	t.Add("ext-george (§4 extension)", "ext-george", weight["ext-george"])
	t.Add("brute-force test (§4: merge and check)", "brute", weight["brute"])
	t.Add("de-coalescing order (§5)", "witness-min-weight", weight["opti-witness"])
	t.Add("", "global-min-weight", weight["opti-global"])

	// Vegdahl node merging (§1: merging non-move-related vertices can make
	// a graph colorable): rescue rate on stuck random instances.
	rngV := rand.New(rand.NewSource(cfg.Seed + 1))
	attempts, rescued := 0, 0
	trials := 300
	if cfg.Quick {
		trials = 60
	}
	for i := 0; i < trials; i++ {
		g := graph.RandomER(rngV, 10, 0.3)
		k2 := greedy.ColoringNumber(g) - 1
		if k2 < 2 {
			continue
		}
		attempts++
		if _, ok := coalesce.MergeToColor(g, k2); ok {
			rescued++
		}
	}
	t2 := &Table{
		Title:  "Vegdahl node merging (§1): graphs not greedy-k-colorable rescued by merging",
		Header: []string{"stuck instances", "rescued by merging", "rate"},
	}
	t2.Add(attempts, rescued, pct(int64(rescued), int64(attempts)))
	return []*Table{t, t2}, nil
}
