package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/query"
	"kgaq/perfbench/trace"
)

// The warm and cold workloads run the 92 dbpedia-sim queries of env.order
// in a closed loop from one client. Operations come in pairs on the same
// query: the first unsharded, the second over two shards (the "second"
// operation type). Both compile with Engine.Prepare and run once with
// Prepared.Query.
const closedShards = 2

// Tail percentiles (see report.latencies): a 20 s run completes about 650
// warm and 100 cold operations of each type. Cold's p75 also keeps clear of
// the edge between its cheap queries and the fifth that are chains,
// cycles and flowers, which cost ten times more.
const (
	warmTailPct = 95
	coldTailPct = 75
)

// closedState is one set-up of a closed-loop workload.
type closedState struct {
	env     *env
	eng     *core.Engine
	cold    bool
	warmupS float64
}

// closedOp is the outcome of one operation.
type closedOp struct {
	q       datagen.GenQuery
	shards  int
	latency time.Duration
	prepare time.Duration
	query   time.Duration
	plan    core.PlanInfo
	res     *core.Result
	err     error
}

func setupClosed(cold bool, rec *trace.Recorder) (*closedState, error) {
	e, err := newEnv(rec)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Tau: e.prof.OptimalTau, ErrorBound: errorBound}
	if cold {
		opts.CacheMaxBytes = -1
	}
	eng, err := core.NewEngine(e.ds.Graph, e.ds.Model, opts)
	if err != nil {
		return nil, err
	}
	s := &closedState{env: e, eng: eng, cold: cold}
	if !cold {
		// One untimed pass fills the answer-space cache; the seed is not
		// part of the cache key, so later passes with fresh seeds hit it.
		begin := time.Now()
		sp := rec.Begin("core", "warmup", 0, 0)
		err := parallel(len(e.order), func(_, i int) error {
			q := e.order[i]
			p, err := eng.Prepare(context.Background(), q.Agg)
			if err == nil {
				_, err = p.Query(context.Background(), core.WithSeed(int64(i+1)))
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", q.ID, err)
			}
			return nil
		})
		rec.End(sp)
		if err != nil {
			return nil, err
		}
		s.warmupS = time.Since(begin).Seconds()
	}
	return s, nil
}

// op runs operation i: query i/2 of the canonical order, unsharded for
// even i and sharded for odd i.
func (s *closedState) op(ctx context.Context, seed int64, i int, rec *trace.Recorder) closedOp {
	q := s.env.order[(i/2)%len(s.env.order)]
	o := closedOp{q: q, shards: 1 + (i%2)*(closedShards-1)}
	qid := int64(i + 1)
	root := rec.Begin("gen", "op", 0, qid)
	begin := time.Now()
	sp := rec.Begin("core", "prepare", root, qid)
	p, err := s.eng.Prepare(ctx, q.Agg, core.WithShards(o.shards))
	rec.End(sp)
	o.prepare = time.Since(begin)
	if err == nil {
		o.plan = p.Plan()
		sp = rec.Begin("core", "query", root, qid)
		o.res, err = p.Query(ctx, core.WithSeed(opSeed(seed, i)))
		rec.End(sp)
	}
	o.latency = time.Since(begin)
	o.query = o.latency - o.prepare
	rec.End(root)
	o.err = err
	return o
}

// checkOp applies the correctness checks to one operation and scores it
// against τ-GT.
func (s *closedState) checkOp(r *report, o closedOp, q *quality) {
	r.attempted++
	if o.err != nil {
		r.failed++
		r.check(!errors.Is(o.err, core.ErrInternal), "%s: %v", o.q.ID, o.err)
		return
	}
	if s.cold {
		r.check(o.plan.CacheBuilt > 0 && o.plan.CacheHits == 0,
			"cold plan %s built %d stages and hit %d", o.q.ID, o.plan.CacheBuilt, o.plan.CacheHits)
	} else {
		r.check(o.plan.CacheBuilt == 0, "warm plan %s built %d stages", o.q.ID, o.plan.CacheBuilt)
	}
	checkResult(r, o.q.ID, o.q.Agg, o.res)
	if t, ok := s.env.truth[o.q.ID]; ok && q != nil {
		q.add(o.res.Estimate, o.res.MoE, t)
	}
}

// checkResult checks that every estimate of a result is finite and that
// COUNT estimates are not negative.
func checkResult(r *report, id string, agg *query.Aggregate, res *core.Result) {
	ok := func(v float64) bool {
		return !math.IsNaN(v) && !math.IsInf(v, 0) && (agg.Func != query.Count || v >= 0)
	}
	r.check(ok(res.Estimate), "%s: estimate %v", id, res.Estimate)
	for g, gr := range res.Groups {
		r.check(ok(gr.Estimate), "%s: group %s estimate %v", id, g, gr.Estimate)
	}
}

func runWarm(ctx context.Context, cfg config) (*report, error) { return runClosed(ctx, cfg, "warm") }
func runCold(ctx context.Context, cfg config) (*report, error) { return runClosed(ctx, cfg, "cold") }

func runClosed(ctx context.Context, cfg config, name string) (*report, error) {
	r := newReport()
	cold := name == "cold"
	if cfg.traced {
		return tracedClosed(ctx, cfg, name, r)
	}
	var cal calibrator
	s, setupS, err := timeSetup(&cal, func(int) (*closedState, error) { return setupClosed(cold, nil) },
		func(*closedState) {})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS)

	var lat, latSharded []float64
	var q quality
	cal.sample()
	spent0 := cal.spent
	begin := time.Now()
	n := 0
	for ; time.Since(begin) < cfg.seconds; n++ {
		o := s.op(ctx, cfg.seed, n, nil)
		s.checkOp(r, o, &q)
		if o.shards == 1 {
			lat = append(lat, ms(o.latency))
		} else {
			latSharded = append(latSharded, ms(o.latency))
		}
		cal.maybe()
	}
	wall := time.Since(begin) - (cal.spent - spent0)
	pct := float64(warmTailPct)
	if cold {
		pct = coldTailPct
	}
	r.latencies("latency", lat, pct)
	r.latencies("second", latSharded, pct)
	q.report(r)
	r.set("queries_per_s", float64(n)/wall.Seconds())
	r.set("heap_live_mb", heapLiveMB(s))
	cal.normalize(r)
	return r, nil
}

// tracedClosed runs the operations of half a run untraced, then the same
// operations traced, then the replay probe over the single-edge queries
// they covered.
func tracedClosed(ctx context.Context, cfg config, name string, r *report) (*report, error) {
	rec := trace.New()
	s, err := setupClosed(name == "cold", rec)
	if err != nil {
		return nil, err
	}
	r.set("datagen.generate_s", s.env.genS)
	r.set("core.warmup_s", s.warmupS)

	begin := time.Now()
	n := 0
	for ; time.Since(begin) < cfg.seconds/2; n++ {
		s.checkOp(r, s.op(ctx, cfg.seed, n, nil), nil)
	}
	untraced := time.Since(begin)

	var ops []closedOp
	begin = time.Now()
	for i := 0; i < n; i++ {
		ops = append(ops, s.op(ctx, cfg.seed, i, rec))
	}
	traced := time.Since(begin)

	var c coreLedger
	var q quality
	for _, o := range ops {
		s.checkOp(r, o, &q)
		c.add(o)
	}
	c.report(r)
	q.report(r)
	st := s.eng.CacheStats()
	r.set("core.cache.hit_rate", st.HitRate())
	r.set("core.cache.invalidated", float64(st.Invalidated))
	r.set("core.cache.bytes", float64(st.Bytes))

	pr, err := newProber(s.env, rec)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for i, o := range ops {
		if o.err != nil || o.shards != 1 || seen[o.q.ID] {
			continue
		}
		seen[o.q.ID] = true
		pr.probe(ctx, r, o.q, o.res, opSeed(cfg.seed, i), int64(-(i + 1)))
	}
	pr.report(r)
	return r, finishTrace(r, rec, cfg, name, traced, untraced)
}

// coreLedger averages the engine's per-query work and time.
type coreLedger struct {
	n                          int
	prepare, query             float64
	built, hits                float64
	rounds, draws, correct     float64
	sampling, estimation, guar float64
}

func (c *coreLedger) add(o closedOp) {
	if o.err != nil {
		return
	}
	c.n++
	c.prepare += ms(o.prepare)
	c.query += ms(o.query)
	c.built += float64(o.plan.CacheBuilt)
	c.hits += float64(o.plan.CacheHits)
	c.addResult(o.res)
}

func (c *coreLedger) addResult(res *core.Result) {
	c.rounds += float64(len(res.Rounds))
	c.draws += float64(res.SampleSize)
	c.correct += float64(res.Correct)
	c.sampling += res.Times.Sampling.Seconds()
	c.estimation += res.Times.Estimation.Seconds()
	c.guar += res.Times.Guarantee.Seconds()
}

func (c *coreLedger) report(r *report) {
	n := float64(max(1, c.n))
	r.set("core.prepare_ms", c.prepare/n)
	r.set("core.query_ms", c.query/n)
	r.set("core.plan.cache_built", c.built/n)
	r.set("core.plan.cache_hits", c.hits/n)
	r.set("core.rounds", c.rounds/n)
	r.set("core.draws", c.draws/n)
	if c.draws > 0 {
		r.set("core.correct_share", c.correct/c.draws)
	}
	r.set("core.step.sampling_s", c.sampling/n)
	r.set("core.step.estimation_s", c.estimation/n)
	r.set("core.step.guarantee_s", c.guar/n)
}
