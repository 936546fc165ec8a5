package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"kgaq/internal/baselines"
	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/embedding"
	"kgaq/internal/federate"
	"kgaq/internal/httpapi"
	"kgaq/internal/kg"
	"kgaq/internal/query"
	"kgaq/perfbench/trace"
)

// The federated workload: a federate.Coordinator scatters COUNT, SUM and
// AVG queries across fedMembers in-process loopback members, each holding
// a disjoint share of the answers of one generated graph. Prices are
// heavy-tailed and answers are reachable over one or two predicates, so
// visiting probabilities differ and no query converges in its pilot
// round. The second operation type runs the same query on the unsplit
// twin graph through a local engine with one shard per member.
const (
	fedMembers   = 3
	fedAnswers   = 3000
	fedGraphSeed = 404
	fedRoot      = "FedHub"
	// fedTailPct (see report.latencies): a 20 s run completes about 1800
	// operations of each type. Its p99 and p98 (18 and 36 samples beyond)
	// follow the host's millisecond stalls: over ten seeds the twin's p99
	// spread 0.24 and its p98 0.25. p95 leaves 90 samples beyond it.
	fedTailPct = 95
)

type fedState struct {
	twin    *core.Engine
	coord   *federate.Coordinator
	servers []*httptest.Server
	queries []*query.Aggregate
	truth   []float64
	warmupS float64
	rec     *trace.Recorder

	rpcNS atomic.Int64 // member handler time on /v1/federate/sample
	rpcs  atomic.Int64
}

// fedGraphs builds the member graphs and their unsplit twin. Member j owns
// the answers i ≡ j (mod fedMembers); every graph holds the hub.
func fedGraphs() (members []*kg.Graph, twin *kg.Graph, err error) {
	build := func(owns func(i int) bool) (*kg.Graph, error) {
		rng := rand.New(rand.NewSource(fedGraphSeed))
		b := kg.NewBuilder()
		hub := b.AddNode(fedRoot, "Country")
		engines := make([]kg.NodeID, 40)
		for k := range engines {
			engines[k] = b.AddNode(fmt.Sprintf("FedEngine_%d", k), "Engine")
		}
		for i := 0; i < fedAnswers; i++ {
			price := 20000 * math.Exp(rng.NormFloat64())
			second := rng.Float64() < 0.5
			engine := engines[rng.Intn(len(engines))]
			if !owns(i) {
				continue
			}
			car := b.AddNode(fmt.Sprintf("FedCar_%d", i), "Automobile")
			if err := b.SetAttr(car, "price", price); err != nil {
				return nil, err
			}
			if err := b.AddEdge(hub, "product", car); err != nil {
				return nil, err
			}
			if second {
				if err := b.AddEdge(hub, "assembly", car); err != nil {
					return nil, err
				}
			}
			if err := b.AddEdge(car, "engine", engine); err != nil {
				return nil, err
			}
		}
		return b.Build(), nil
	}
	for j := 0; j < fedMembers; j++ {
		g, err := build(func(i int) bool { return i%fedMembers == j })
		if err != nil {
			return nil, nil, err
		}
		members = append(members, g)
	}
	twin, err = build(func(int) bool { return true })
	return members, twin, err
}

// fedModel is the oracle embedding over g with the dbpedia-sim predicate
// clusters, so product/assembly answers are correct at the profile's τ.
func fedModel(g *kg.Graph) (embedding.Model, error) {
	p := datagen.DBpediaSim()
	return embedding.NewOracle(g, p.EmbeddingDim, p.Seed+1, p.EmbeddingClusters())
}

func setupFederated(ctx context.Context, rec *trace.Recorder) (*fedState, error) {
	sp := rec.Begin("gen", "graphs", 0, 0)
	graphs, twinGraph, err := fedGraphs()
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	tau := datagen.DBpediaSim().OptimalTau
	opts := core.Options{Tau: tau, ErrorBound: errorBound}
	s := &fedState{rec: rec}
	var members []federate.Member
	for j, g := range graphs {
		model, err := fedModel(g)
		if err != nil {
			s.close()
			return nil, err
		}
		eng, err := core.NewEngine(g, model, opts)
		if err != nil {
			s.close()
			return nil, err
		}
		srv := httptest.NewServer(s.timeMember(httpapi.NewServer(eng).Handler()))
		s.servers = append(s.servers, srv)
		members = append(members, federate.Member{Name: fmt.Sprintf("m%d", j), URL: srv.URL})
	}
	// Hedging off: a hedge re-issues a slow RPC, which would make the RPC
	// count depend on the host's speed.
	s.coord, err = federate.New(federate.Config{
		Members: members, HedgeAfter: -1,
		Client: &http.Client{Transport: queryIDTransport{http.DefaultTransport}},
	}, opts)
	if err != nil {
		s.close()
		return nil, err
	}
	model, err := fedModel(twinGraph)
	if err != nil {
		s.close()
		return nil, err
	}
	if s.twin, err = core.NewEngine(twinGraph, model, core.Options{Tau: tau, ErrorBound: errorBound, Shards: fedMembers}); err != nil {
		s.close()
		return nil, err
	}
	ssb, err := baselines.NewSSB(twinGraph, model, tau, 3)
	if err != nil {
		s.close()
		return nil, err
	}
	s.queries = []*query.Aggregate{
		query.Simple(query.Count, "", fedRoot, "Country", "product", "Automobile"),
		query.Simple(query.Sum, "price", fedRoot, "Country", "product", "Automobile"),
		query.Simple(query.Avg, "price", fedRoot, "Country", "product", "Automobile"),
	}
	for _, q := range s.queries {
		ans, err := ssb.Execute(q)
		if err != nil {
			s.close()
			return nil, err
		}
		s.truth = append(s.truth, ans.Value)
	}
	begin := time.Now()
	sp = rec.Begin("core", "warmup", 0, 0)
	defer rec.End(sp)
	for i, q := range s.queries {
		if _, err := s.coord.Query(ctx, q, core.WithSeed(int64(i+1))); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up federated %s: %w", q.Func, err)
		}
		if _, err := s.twin.Query(ctx, q, core.WithSeed(int64(i+1))); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up twin %s: %w", q.Func, err)
		}
	}
	s.warmupS = time.Since(begin).Seconds()
	return s, nil
}

func (s *fedState) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
}

// spanKey carries the operation's query id and coordinator span to the
// member RPCs the coordinator sends on its behalf.
type spanKey struct{}

type spanRef struct {
	qid  int64
	span int
}

// queryIDTransport copies the span reference from a request's context
// into a header the member-side wrapper reads.
type queryIDTransport struct{ next http.RoundTripper }

func (t queryIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(queryIDHeader, strconv.FormatInt(ref.qid, 10)+"/"+strconv.Itoa(ref.span))
	}
	return t.next.RoundTrip(r)
}

// timeMember times the member handler's /v1/federate/sample calls and,
// in the traced pass, records each as a span under the coordinator's.
func (s *fedState) timeMember(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		next.ServeHTTP(w, r)
		if r.URL.Path != "/v1/federate/sample" {
			return
		}
		d := time.Since(begin)
		s.rpcNS.Add(int64(d))
		s.rpcs.Add(1)
		var qid int64
		var parent int
		if _, err := fmt.Sscanf(r.Header.Get(queryIDHeader), "%d/%d", &qid, &parent); err == nil {
			s.rec.Add("httpapi", "federate_sample", parent, qid, begin, d)
		}
	})
}

// fedOp is one operation: federated for even i, the local twin for odd i.
type fedOp struct {
	fn      int
	local   bool
	latency time.Duration
	res     *core.Result
	err     error
}

func (s *fedState) op(ctx context.Context, seed int64, i int, rec *trace.Recorder) fedOp {
	o := fedOp{fn: (i / 2) % len(s.queries), local: i%2 == 1}
	q := s.queries[o.fn]
	qid := int64(i + 1)
	root := rec.Begin("gen", "op", 0, qid)
	begin := time.Now()
	if o.local {
		sp := rec.Begin("core", "query", root, qid)
		o.res, o.err = s.twin.Query(ctx, q, core.WithSeed(opSeed(seed, i)))
		rec.End(sp)
	} else {
		sp := rec.Begin("federate", "query", root, qid)
		octx := ctx
		if rec != nil {
			octx = context.WithValue(ctx, spanKey{}, spanRef{qid: qid, span: sp})
		}
		o.res, o.err = s.coord.Query(octx, q, core.WithSeed(opSeed(seed, i)))
		rec.End(sp)
	}
	o.latency = time.Since(begin)
	rec.End(root)
	return o
}

func (s *fedState) checkOp(r *report, o fedOp, q *quality, rounds *[]float64) {
	r.attempted++
	if o.err != nil {
		r.failed++
		r.check(!errors.Is(o.err, core.ErrInternal), "federated %v: %v", s.queries[o.fn].Func, o.err)
		return
	}
	r.check(!o.res.Degraded, "federated query degraded with every member up")
	checkResult(r, s.queries[o.fn].Func.String(), s.queries[o.fn], o.res)
	if !o.local {
		*rounds = append(*rounds, float64(len(o.res.Rounds)))
	}
	if q != nil {
		q.add(o.res.Estimate, o.res.MoE, s.truth[o.fn])
	}
}

func runFederated(ctx context.Context, cfg config) (*report, error) {
	r := newReport()
	if cfg.traced {
		return tracedFederated(ctx, cfg, r)
	}
	var cal calibrator
	s, setupS, err := timeSetup(&cal, func(int) (*fedState, error) { return setupFederated(ctx, nil) },
		func(s *fedState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.set("setup_s", setupS)

	var lat, latLocal, rounds []float64
	var q quality
	cal.sample()
	spent0 := cal.spent
	begin := time.Now()
	n := 0
	for ; time.Since(begin) < cfg.seconds; n++ {
		o := s.op(ctx, cfg.seed, n, nil)
		s.checkOp(r, o, &q, &rounds)
		if o.local {
			latLocal = append(latLocal, ms(o.latency))
		} else {
			lat = append(lat, ms(o.latency))
		}
		cal.maybe()
	}
	wall := time.Since(begin) - (cal.spent - spent0)
	r.check(mean(rounds) > 1, "federated queries averaged %.2f scatter rounds, want > 1", mean(rounds))
	r.latencies("latency", lat, fedTailPct)
	r.latencies("second", latLocal, fedTailPct)
	q.report(r)
	r.set("queries_per_s", float64(n)/wall.Seconds())
	r.set("heap_live_mb", heapLiveMB(s))
	cal.normalize(r)
	return r, nil
}

func tracedFederated(ctx context.Context, cfg config, r *report) (*report, error) {
	rec := trace.New()
	s, err := setupFederated(ctx, rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.set("core.warmup_s", s.warmupS)

	var rounds []float64
	begin := time.Now()
	n := 0
	for ; time.Since(begin) < cfg.seconds/2; n++ {
		s.checkOp(r, s.op(ctx, cfg.seed, n, nil), nil, &rounds)
	}
	untraced := time.Since(begin)

	rounds = rounds[:0]
	st0 := s.coord.Stats()
	rpcNS0, rpcs0 := s.rpcNS.Load(), s.rpcs.Load()
	var c coreLedger
	var q quality
	fedQueries := 0
	begin = time.Now()
	for i := 0; i < n; i++ {
		o := s.op(ctx, cfg.seed, i, rec)
		s.checkOp(r, o, &q, &rounds)
		if o.err == nil && o.local {
			c.n++
			c.addResult(o.res)
		}
		if !o.local {
			fedQueries++
		}
	}
	traced := time.Since(begin)
	c.report(r)
	q.report(r)
	r.check(mean(rounds) > 1, "federated queries averaged %.2f scatter rounds, want > 1", mean(rounds))

	st := s.coord.Stats()
	var rpcs, restarts uint64
	for k, m := range st.Members {
		rpcs += m.RPCs - st0.Members[k].RPCs
		restarts += m.EpochRestarts - st0.Members[k].EpochRestarts
	}
	r.set("federate.rpcs_per_query", float64(rpcs)/float64(max(1, fedQueries)))
	r.set("federate.rounds", mean(rounds))
	r.set("federate.epoch_restarts", float64(restarts))
	r.set("federate.member_rpc_ms", float64(s.rpcNS.Load()-rpcNS0)/1e6/float64(max(1, s.rpcs.Load()-rpcs0)))
	cs := s.twin.CacheStats()
	r.set("core.cache.hit_rate", cs.HitRate())
	r.set("core.cache.invalidated", float64(cs.Invalidated))
	r.set("core.cache.bytes", float64(cs.Bytes))
	return r, finishTrace(r, rec, cfg, "federated", traced, untraced)
}
