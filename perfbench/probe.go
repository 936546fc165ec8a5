package main

import (
	"context"
	"math/rand"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/estimate"
	"kgaq/internal/kg"
	"kgaq/internal/query"
	"kgaq/internal/semsim"
	"kgaq/internal/shard"
	"kgaq/internal/walk"
	"kgaq/perfbench/trace"
)

// The engine's compile and refine layers are not reachable one by one
// through its entry points, so the traced pass replays them: for every
// single-edge query it calls each layer's public function with the inputs
// the engine uses (the paper's defaults: n = 3, self-loop 0.001, repeat 3,
// the profile's τ) and times the call. Replaying the walk must reproduce
// the engine's candidate set, which checks that the probe measures the
// engine's work and not some other.
const (
	probeHops     = 3
	probeSelfLoop = 0.001
	probeRepeat   = 3
)

type prober struct {
	g    *kg.Graph
	calc *semsim.Calculator
	tau  float64
	rec  *trace.Recorder

	n, nSplit, nEst                                       int
	bfs, build, converge, answerDist, split               time.Duration
	walkDraw, shardDraw, validate, point, moe, stratified time.Duration
	boundNodes, iters, candidates, draws, shardDraws      int
	expansions, fallbacks, validated, validatedCorrect    int
}

func newProber(e *env, rec *trace.Recorder) (*prober, error) {
	calc, err := semsim.NewCalculator(e.ds.Graph, e.ds.Model, 0)
	if err != nil {
		return nil, err
	}
	return &prober{g: e.ds.Graph, calc: calc, tau: e.prof.OptimalTau, rec: rec}, nil
}

// timed runs f inside a span of the given layer and returns its duration.
func (p *prober) timed(layer, name string, parent int, qid int64, f func()) time.Duration {
	sp := p.rec.Begin(layer, name, parent, qid)
	begin := time.Now()
	f()
	d := time.Since(begin)
	p.rec.End(sp)
	return d
}

// probe replays one single-edge query. res is the engine's unsharded
// result for it; the replay draws as many answers as the engine did.
func (p *prober) probe(ctx context.Context, r *report, q datagen.GenQuery, res *core.Result, seed int64, qid int64) {
	paths, err := q.Agg.Q.Decompose()
	if err != nil || len(paths) != 1 || len(paths[0].Hops) != 1 {
		return
	}
	path, hop := paths[0], paths[0].Hops[0]
	root := p.g.NodeByName(path.RootName)
	pred := p.g.PredByName(hop.Predicate)
	types := make([]kg.TypeID, 0, len(hop.Types))
	for _, t := range hop.Types {
		types = append(types, p.g.TypeByName(t))
	}
	top := p.rec.Begin("gen", "probe", 0, qid)
	defer p.rec.End(top)
	p.n++

	var bound *kg.Bounded
	bfs := p.timed("kg", "bounded_subgraph", top, qid, func() { bound = p.g.BoundedSubgraph(root, probeHops) })
	p.bfs += bfs
	p.boundNodes += bound.Size()

	var w *walk.Walker
	newDur := p.timed("walk", "new", top, qid, func() {
		w, err = walk.New(p.g, p.calc, root, pred, walk.Config{N: probeHops, SelfLoopSim: probeSelfLoop})
	})
	if err != nil {
		r.check(false, "probe %s: walk.New: %v", q.ID, err)
		return
	}
	// walk.New runs the same BFS internally; its own work is the rest.
	p.build += max(0, newDur-bfs)

	var iters int
	p.converge += p.timed("walk", "converge", top, qid, func() { iters, err = w.ConvergeCtx(ctx) })
	if err != nil {
		r.check(false, "probe %s: converge: %v", q.ID, err)
		return
	}
	p.iters += iters

	var dist *walk.AnswerDist
	p.answerDist += p.timed("walk", "answer_distribution", top, qid, func() { dist, err = w.AnswerDistribution(types) })
	if err != nil {
		r.check(false, "probe %s: answer distribution: %v", q.ID, err)
		return
	}
	p.candidates += dist.Len()
	r.check(dist.Len() == res.Candidates, "probe %s: replayed %d candidates, engine reported %d",
		q.ID, dist.Len(), res.Candidates)

	k := max(1, res.SampleSize)
	rng := rand.New(rand.NewSource(seed))
	var idx []int
	p.walkDraw += p.timed("walk", "sample", top, qid, func() { idx = dist.Sample(rng, k) })
	p.draws += k

	var spaces []*shard.Space
	p.split += p.timed("shard", "split_space", top, qid, func() {
		spaces, err = shard.SplitSpace(shard.NewPlan(closedShards), dist.Answers, dist.Probs)
	})
	if err != nil {
		r.check(false, "probe %s: split: %v", q.ID, err)
		return
	}
	p.nSplit++
	strataIdx := make([][]int, len(spaces))
	p.shardDraw += p.timed("shard", "draw", top, qid, func() {
		for s, sp := range spaces {
			strataIdx[s] = sp.Draw(rng, max(1, int(sp.Weight*float64(k)+0.5)))
		}
	})
	for _, xs := range strataIdx {
		p.shardDraws += len(xs)
	}

	seen := map[int]bool{}
	var distinct []kg.NodeID
	for _, i := range idx {
		if !seen[i] {
			seen[i] = true
			distinct = append(distinct, dist.Answers[i])
		}
	}
	var verdicts map[kg.NodeID]semsim.ValidateResult
	var vs semsim.ValidateStats
	p.validate += p.timed("semsim", "validate", top, qid, func() {
		verdicts, vs = semsim.ValidateCtx(ctx, p.g, p.calc, root, pred, w.PiMap(), distinct,
			semsim.ValidatorConfig{Repeat: probeRepeat, MaxLen: probeHops, Tau: p.tau})
	})
	p.expansions += vs.Expansions
	p.fallbacks += vs.Fallbacks
	p.validated += len(distinct)
	for _, u := range distinct {
		if verdicts[u].Similarity >= p.tau {
			p.validatedCorrect++
		}
	}

	if !q.Agg.Func.HasGuarantee() {
		return
	}
	attr := kg.InvalidAttr
	if q.Agg.Attr != "" {
		attr = p.g.AttrByName(q.Agg.Attr)
	}
	obsOf := func(i int, prob float64) estimate.Observation {
		u := dist.Answers[i]
		o := estimate.Observation{Prob: prob, Correct: verdicts[u].Similarity >= p.tau}
		if attr != kg.InvalidAttr {
			v, ok := p.g.Attr(u, attr)
			o.Value = v
			o.Correct = o.Correct && (ok || q.Agg.Func == query.Count)
		}
		return o
	}
	obs := make([]estimate.Observation, len(idx))
	for j, i := range idx {
		obs[j] = obsOf(i, dist.Probs[i])
	}
	// Shard draws are validated only where the unsharded sample already
	// settled the answer; unseen ones count as incorrect, which keeps the
	// timing representative without another validation pass.
	strata := make([]estimate.Stratum, len(spaces))
	for s, sp := range spaces {
		strata[s].Weight = sp.Weight
		for _, i := range strataIdx[s] {
			strata[s].Obs = append(strata[s].Obs, obsOf(i, dist.Probs[i]/sp.Weight))
		}
	}
	// An error (say, a sample with no correct draw) is an outcome the
	// engine meets too; the call is timed either way.
	gcfg := estimate.DefaultGuarantee()
	fn := q.Agg.Func
	p.point += p.timed("estimate", "estimate", top, qid, func() { _, _ = estimate.Estimate(fn, obs, estimate.SampleSize) })
	p.moe += p.timed("estimate", "moe", top, qid, func() { _, _ = estimate.MoE(fn, obs, estimate.SampleSize, gcfg, rng) })
	p.stratified += p.timed("estimate", "moe_stratified", top, qid, func() {
		_, _ = estimate.MoEStratified(fn, strata, estimate.SampleSize, gcfg)
	})
	p.nEst++
}

func (p *prober) report(r *report) {
	r.check(p.n > 0, "replay probe covered no single-edge query")
	per := func(d time.Duration, n int) float64 { return float64(d) / float64(max(1, n)) }
	n := p.n
	r.set("kg.bfs_ms", per(p.bfs, n)/1e6)
	r.set("kg.bound_nodes", float64(p.boundNodes)/float64(max(1, n)))
	r.set("walk.build_ms", per(p.build, n)/1e6)
	r.set("walk.converge_ms", per(p.converge, n)/1e6)
	r.set("walk.converge_iters", float64(p.iters)/float64(max(1, n)))
	r.set("walk.answer_dist_ms", per(p.answerDist, n)/1e6)
	r.set("walk.candidates", float64(p.candidates)/float64(max(1, n)))
	r.set("walk.draw_ns", per(p.walkDraw, p.draws))
	r.set("shard.draw_ns", per(p.shardDraw, p.shardDraws))
	r.set("shard.split_ms", per(p.split, p.nSplit)/1e6)
	r.set("semsim.validate_ms", per(p.validate, p.nSplit)/1e6)
	r.set("semsim.expansions", float64(p.expansions)/float64(max(1, p.nSplit)))
	r.set("semsim.fallbacks", float64(p.fallbacks)/float64(max(1, p.nSplit)))
	if p.validated > 0 {
		r.set("semsim.correct_share", float64(p.validatedCorrect)/float64(p.validated))
	}
	r.set("estimate.point_us", per(p.point, p.nEst)/1e3)
	r.set("estimate.moe_us", per(p.moe, p.nEst)/1e3)
	r.set("estimate.moe_stratified_us", per(p.stratified, p.nEst)/1e3)
}
