package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kgaq/internal/admission"
	"kgaq/internal/core"
	"kgaq/internal/datagen"
	"kgaq/internal/httpapi"
	"kgaq/internal/kg"
	"kgaq/internal/live"
	"kgaq/internal/query"
	"kgaq/internal/wal"
	"kgaq/perfbench/gen"
	"kgaq/perfbench/trace"
)

// The serve-churn workload drives an in-process httpapi server over
// loopback HTTP in an open loop. The server is set up as kgaqd sets it up
// by default — live durable store, admission controller, compactor,
// prepared-plan cache — with its WAL under churnSync. One request in five
// is a /v1/mutate batch adding edges from a read query's anchor, inside
// that query's walk scope, so reads keep finding their cached answer
// spaces invalidated and recompile.
const (
	churnPlans = 4 // prepared plans read through /v1/plans/{id}/query
	churnEdges = 2 // edges per mutation batch
	churnSync  = wal.SyncInterval
	// churnTailLimit is the read latency limit at churnTailPct that an
	// offered rate must meet to count as sustained. churnTailPct and
	// churnWriteTailPct are also the reported tail percentiles (see
	// report.latencies): a 20 s run's nominal phase sends about 168 reads
	// and 42 writes. The reads' p90, 17 samples from the end, proved less
	// steady than their p85. On a 2-vCPU host the reads' p85 stays below
	// 250 ms at 25 req/s and above 1 s at 120 req/s; a 250 ms limit let
	// one burst in the short 25 req/s phase fail it.
	churnTailLimit    = 500 * time.Millisecond
	churnTailPct      = 85
	churnWriteTailPct = 75
)

// churnRates are the offered rates in requests per second: the nominal
// rate every latency metric is measured at, then two probes, one
// comfortably sustainable and one past the knee. The nominal rate keeps
// both connections busy at once only rarely, so a slower host lengthens
// requests without also queueing them behind each other. churnShares
// splits the run between the rates.
var (
	churnRates  = []float64{15, 25, 120}
	churnShares = []float64{0.7, 0.15, 0.15}
)

// Request kinds.
const (
	kindSingle = iota // /v1/query, one aggregate
	kindMulti         // /v1/query with "aggregates": COUNT+SUM+AVG
	kindPlan          // /v1/plans/{id}/query
	kindWrite         // /v1/mutate
)

type churnState struct {
	env     *env
	dir     string
	dur     *live.Durable
	eng     *core.Engine
	ctrl    *admission.Controller
	srv     *httptest.Server
	clients []*http.Client
	stop    func()
	reads   []datagen.GenQuery // single-aggregate reads: the simple queries
	// multiReads are the reads with an attribute, read as COUNT+SUM+AVG.
	multiReads []datagen.GenQuery
	plans      []churnPlan
	rec        *trace.Recorder
	warmupS    float64

	compactions atomic.Int64
	durErrs     atomic.Int64
}

type churnPlan struct {
	id string
	q  datagen.GenQuery
}

// churnResponse is the subset of the query, plan and multi responses the
// benchmark checks.
type churnResponse struct {
	Estimate    *float64 `json:"estimate"`
	MoE         *float64 `json:"moe"`
	Interrupted bool     `json:"interrupted"`
	Degraded    bool     `json:"degraded"`
	ElapsedMS   float64  `json:"elapsed_ms"`
	SampleSize  int      `json:"sample_size"`
	// Rounds is the round list of a single-aggregate response and the
	// round count of a multi-aggregate one.
	Rounds     json.RawMessage `json:"rounds"`
	Aggregates []struct {
		Func     string   `json:"func"`
		Estimate *float64 `json:"estimate"`
	} `json:"aggregates"`
	ID string `json:"id"`
}

// rounds is the number of refinement rounds a read response reports.
func (c *churnResponse) rounds() int {
	var list []json.RawMessage
	if json.Unmarshal(c.Rounds, &list) == nil {
		return len(list)
	}
	var n int
	_ = json.Unmarshal(c.Rounds, &n) // absent: 0
	return n
}

func setupChurn(ctx context.Context, cfg config, rep int, rec *trace.Recorder) (*churnState, error) {
	e, err := newEnv(rec)
	if err != nil {
		return nil, err
	}
	s := &churnState{env: e, rec: rec}
	for _, q := range e.ds.QueriesByCategory("simple") {
		if _, ok := e.truth[q.ID]; ok {
			s.reads = append(s.reads, q)
			if q.Agg.Attr != "" {
				s.multiReads = append(s.multiReads, q)
			}
		}
	}
	s.dir = filepath.Join(cfg.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	s.dur, err = live.Recover(live.DurabilityConfig{
		Dir: s.dir, Sync: churnSync, SyncInterval: 100 * time.Millisecond,
		CheckpointEvery: 30 * time.Second,
		OnError:         func(error) { s.durErrs.Add(1) },
	}, e.ds.Graph, 0)
	if err != nil {
		return nil, err
	}
	store := s.dur.Store()
	store.OnCompact(func(live.CompactEvent) { s.compactions.Add(1) })
	s.eng, err = core.NewLiveEngine(store, e.ds.Model, core.Options{Tau: e.prof.OptimalTau, ErrorBound: errorBound})
	if err != nil {
		s.close()
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	stopCkpt := s.dur.StartCheckpointer(runCtx)
	stopCompact := store.StartCompactor(runCtx, live.CompactorConfig{Interval: 2 * time.Second, MinDelta: 256})
	s.stop = func() { stopCompact(); stopCkpt(); cancel() }

	api := httpapi.NewLiveServer(s.eng, store)
	api.ConfigureDurability(s.dur)
	s.ctrl = admission.New(admission.Config{MaxErrorBound: 0.25, DegradePressure: 0.5})
	api.ConfigureAdmission(s.ctrl, "")
	h := api.Handler()
	if rec != nil {
		h = s.timeHandler(h)
	}
	s.srv = httptest.NewServer(h)
	for i := 0; i < clients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}

	// Prepare the plans, then one untimed pass over every read fills the
	// answer-space cache as a server in steady state has it filled.
	begin := time.Now()
	sp := rec.Begin("core", "warmup", 0, 0)
	defer rec.End(sp)
	for i := 0; i < churnPlans; i++ {
		q := s.reads[(i*len(s.reads))/churnPlans]
		var resp churnResponse
		if code, err := s.post(ctx, 0, "/v1/prepare", "application/json", map[string]any{"query": q.Agg.String()}, &resp, 0, 0); err != nil || code != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("prepare %s: status %d: %v", q.ID, code, err)
		}
		s.plans = append(s.plans, churnPlan{id: resp.ID, q: q})
	}
	err = parallel(len(s.reads), func(conn, i int) error {
		q := s.reads[i]
		var resp churnResponse
		if code, err := s.post(ctx, conn, "/v1/query", "application/json", map[string]any{"query": q.Agg.String(), "seed": i + 1}, &resp, 0, 0); err != nil || code != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", q.ID, code, err)
		}
		return nil
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.warmupS = time.Since(begin).Seconds()
	return s, nil
}

func (s *churnState) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if s.stop != nil {
		s.stop()
	}
	if s.dur != nil {
		_ = s.dur.Close() // the run's data is scratch; a failed final sync loses nothing
	}
	os.RemoveAll(s.dir)
}

// queryIDHeader carries the benchmark's per-query id from the client span
// to the server-side span in the traced pass.
const queryIDHeader = "X-Perfbench-Query"

// timeHandler records an httpapi span for every request that carries a
// client span reference (only the traced pass's requests do).
func (s *churnState) timeHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var qid int64
		var parent int
		_, err := fmt.Sscanf(r.Header.Get(queryIDHeader), "%d/%d", &qid, &parent)
		begin := time.Now()
		next.ServeHTTP(w, r)
		if err == nil {
			s.rec.Add("httpapi", r.URL.Path, parent, qid, begin, time.Since(begin))
		}
	})
}

// post sends one JSON (or NDJSON) request on connection conn and decodes
// the response into out. qid and span name the client span a traced
// server hangs its handler span under (0 = untraced).
func (s *churnState) post(ctx context.Context, conn int, path, ctype string, body any, out *churnResponse, qid int64, span int) (int, error) {
	var buf []byte
	switch b := body.(type) {
	case string:
		buf = []byte(b)
	default:
		var err error
		if buf, err = json.Marshal(b); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.srv.URL+path, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", ctype)
	if span != 0 {
		req.Header.Set(queryIDHeader, fmt.Sprintf("%d/%d", qid, span))
	}
	resp, err := s.clients[conn].Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// churnOutcome is one request's result beyond its timing.
type churnOutcome struct {
	kind      int
	status    int
	resp      churnResponse
	clientLat time.Duration // from the actual send, not the schedule
	plan      *churnPlan
	read      *datagen.GenQuery
	batch     live.Batch
}

// churnCycle is the fixed request mix, repeated: 40% single reads, 20%
// multi-aggregate reads, 20% prepared-plan reads, 20% writes. Each kind
// walks its targets in a fixed order, so every run offers the same
// sequence of requests; the seed varies their sampling seeds and the
// written edges.
var churnCycle = []int{kindSingle, kindPlan, kindWrite, kindSingle, kindMulti,
	kindSingle, kindPlan, kindWrite, kindSingle, kindMulti}

// schedule builds one phase's requests, continuing the request sequence
// at index first.
func (s *churnState) schedule(rng *rand.Rand, seed int64, rate float64, dur time.Duration, first int, rec *trace.Recorder) ([]gen.Request, []*churnOutcome) {
	n := int(rate * dur.Seconds())
	reqs := make([]gen.Request, 0, n)
	outs := make([]*churnOutcome, 0, n)
	g := s.env.ds.Graph
	for i, at := range gen.Fixed(rate, n) {
		idx := first + i
		o := &churnOutcome{kind: churnCycle[idx%len(churnCycle)]}
		turn := idx / len(churnCycle) // how often this kind came up before
		var path, ctype string
		var body any
		switch o.kind {
		case kindWrite:
			hop := mustSingleHop(s.reads[(2*turn+idx%2)%len(s.reads)].Agg)
			targets := g.NodesByType(g.TypeByName(hop.types[0]))
			var lines []string
			for k := 0; k < churnEdges; k++ {
				m := live.AddEdge(hop.root, hop.pred, g.Name(targets[rng.Intn(len(targets))]))
				o.batch = append(o.batch, m)
				line, _ := json.Marshal(m)
				lines = append(lines, string(line))
			}
			path, ctype, body = "/v1/mutate", "application/x-ndjson", strings.Join(lines, "\n")
		case kindMulti:
			o.read = &s.multiReads[(2*turn+idx%2)%len(s.multiReads)]
			attr := o.read.Agg.Attr
			path, ctype = "/v1/query", "application/json"
			body = map[string]any{"query": o.read.Agg.String(), "seed": opSeed(seed, idx), "aggregates": []map[string]string{
				{"func": "COUNT"}, {"func": "SUM", "attr": attr}, {"func": "AVG", "attr": attr}}}
		case kindPlan:
			o.plan = &s.plans[(2*turn+idx%2)%len(s.plans)]
			path, ctype = "/v1/plans/"+o.plan.id+"/query", "application/json"
			body = map[string]any{"seed": opSeed(seed, idx)}
		default:
			o.read = &s.reads[(4*turn+idx%4)%len(s.reads)]
			path, ctype = "/v1/query", "application/json"
			body = map[string]any{"query": o.read.Agg.String(), "seed": opSeed(seed, idx)}
		}
		outs = append(outs, o)
		qid := int64(idx + 1)
		reqs = append(reqs, gen.Request{At: at, Do: func(ctx context.Context, conn int) error {
			sp := rec.Begin("gen", "request", 0, qid)
			sent := time.Now()
			code, err := s.post(ctx, conn, path, ctype, body, &o.resp, qid, sp)
			o.clientLat = time.Since(sent)
			rec.End(sp)
			o.status = code
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("%s: status %d", path, code)
			}
			return err
		}})
	}
	return reqs, outs
}

// singleHop is a simple query's one edge, by name.
type singleHop struct {
	root, pred string
	types      []string
}

func mustSingleHop(a *query.Aggregate) singleHop {
	paths, err := a.Q.Decompose()
	if err != nil || len(paths) != 1 || len(paths[0].Hops) != 1 {
		panic(fmt.Sprintf("perfbench: %s is not a single-edge query", a))
	}
	h := paths[0].Hops[0]
	return singleHop{root: paths[0].RootName, pred: h.Predicate, types: h.Types}
}

// phase is one offered rate's measurements.
type phase struct {
	rate      float64
	dur       time.Duration
	run       *gen.Run
	outs      []*churnOutcome
	reads     []float64 // read latency from the schedule, ms
	writes    []float64
	completed int
	degraded  int // reads flagged degraded
	ok        bool
}

func runServeChurn(ctx context.Context, cfg config) (*report, error) {
	r := newReport()
	if err := gen.SelfTest(ctx); err != nil {
		r.check(false, "%v", err)
	}
	if cfg.traced {
		return tracedChurn(ctx, cfg, r)
	}
	var cal calibrator
	s, setupS, err := timeSetup(&cal, func(rep int) (*churnState, error) { return setupChurn(ctx, cfg, rep, nil) },
		func(s *churnState) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.set("setup_s", setupS)

	nominal := s.play(ctx, cfg, r, nil, &cal)[0]
	s.checkServer(r)
	r.latencies("latency", nominal.reads, churnTailPct)
	r.latencies("second", nominal.writes, churnWriteTailPct)
	r.set("heap_live_mb", heapLiveMB(s))
	// queries_per_s is a completion rate bounded by the offered schedule,
	// not a time. Writes are loopback HTTP plus a WAL append without
	// fsync, and their time follows the host's CPU speed too loosely for
	// calibration to help (README.md). All three stay as measured.
	cal.normalize(r, "queries_per_s", "second_p50_ms", "second_tail_ms")
	return r, nil
}

// play runs the nominal phase and the probes, checks every response and
// reports the highest sustained rate. cal samples the host's speed during
// the nominal phase.
func (s *churnState) play(ctx context.Context, cfg config, r *report, rec *trace.Recorder, cal *calibrator) []*phase {
	rng := rand.New(rand.NewSource(cfg.seed))
	var phases []*phase
	first := 0
	for i, rate := range churnRates {
		ph := &phase{rate: rate, dur: time.Duration(churnShares[i] * float64(cfg.seconds))}
		var reqs []gen.Request
		reqs, ph.outs = s.schedule(rng, cfg.seed, rate, ph.dur, first, rec)
		first += len(reqs)
		// A request still waiting for a connection churnTailLimit after
		// the phase's last send time has missed the limit: it is dropped,
		// and the phase counts as not sustained. The nominal rate drops
		// nothing.
		cutoff := ph.dur + churnTailLimit
		stop := func() {}
		if i == 0 {
			cutoff += time.Minute
			stop = calibrateDuring(cal)
		}
		ph.run = gen.Play(ctx, reqs, clients, cutoff)
		stop()
		s.score(r, ph)
		phases = append(phases, ph)
	}
	best := phases[0]
	reads, degraded := 0, 0
	for _, ph := range phases {
		if ph.ok && ph.rate > best.rate {
			best = ph
		}
		reads += len(ph.reads)
		degraded += ph.degraded
	}
	if best.ok {
		r.set("max_ok_rate_rps", best.rate)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: serve-churn: no offered rate met the read p%d limit of %v\n", churnTailPct, churnTailLimit)
	}
	r.notes["max_ok_rate_rps"] = fmt.Sprintf("of %v req/s offered, read p%d limit %v", churnRates, churnTailPct, churnTailLimit)
	r.set("queries_per_s", best.throughput())
	fmt.Fprintf(os.Stderr, "perfbench: serve-churn: sustained %.1f req/s offered, %.2f/s completed\n",
		best.rate, best.throughput())
	return phases
}

// calibrateDuring samples the host's speed every calibEvery on a
// goroutine of its own until the returned stop is called. An open loop
// has no quiet points, so the samples share the CPUs with the server. At
// the nominal rate the server leaves a CPU free most of the time, and the
// median over some fifty samples sets aside those that had to wait.
// Bursts timed only before and after the nominal phase, or only while no
// request was in flight, tracked the reads' latency worse.
func calibrateDuring(cal *calibrator) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cal.sample()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// throughput is the phase's completions per second, from its first send
// time to its last completion.
func (ph *phase) throughput() float64 {
	last := time.Duration(0)
	for _, o := range ph.run.Outcomes {
		if o.Sent {
			last = max(last, o.Done)
		}
	}
	if last <= 0 {
		return 0
	}
	return float64(ph.completed) / last.Seconds()
}

// score checks a phase's responses and decides whether its rate was
// sustained: the read tail within churnTailLimit and no request left in
// the generator's backlog at the phase's end.
func (s *churnState) score(r *report, ph *phase) {
	for i, o := range ph.outs {
		g := ph.run.Outcomes[i]
		if !g.Sent {
			continue
		}
		r.attempted++
		lat := ms(g.Latency())
		if o.status >= 500 {
			r.check(false, "serve-churn: status %d (%v)", o.status, g.Err)
		}
		if g.Err != nil || o.resp.Interrupted {
			r.failed++
			continue
		}
		ph.completed++
		if o.kind == kindWrite {
			ph.writes = append(ph.writes, lat)
			continue
		}
		ph.reads = append(ph.reads, lat)
		if o.resp.Degraded {
			ph.degraded++
		}
		s.checkRead(r, o)
	}
	ph.ok = ph.run.Unsent == 0 && len(ph.reads) > 0 && percentile(ph.reads, churnTailPct) <= ms(churnTailLimit)
	fmt.Fprintf(os.Stderr, "perfbench: serve-churn: %.0f req/s: %d sent, %d unsent, max backlog %d, read p%d %.1fms, sustained=%v\n",
		ph.rate, len(ph.outs)-ph.run.Unsent, ph.run.Unsent, ph.run.MaxBacklog, churnTailPct, percentile(ph.reads, churnTailPct), ph.ok)
}

// checkRead checks that every estimate a read returned is finite and that
// COUNT estimates are not negative.
func (s *churnState) checkRead(r *report, o *churnOutcome) {
	finite := func(v *float64) bool { return v != nil && !math.IsNaN(*v) && !math.IsInf(*v, 0) }
	switch o.kind {
	case kindMulti:
		r.check(len(o.resp.Aggregates) == 3, "multi read returned %d aggregates", len(o.resp.Aggregates))
		for _, a := range o.resp.Aggregates {
			r.check(finite(a.Estimate) && (a.Func != "COUNT" || *a.Estimate >= 0), "multi read %s estimate %v", a.Func, a.Estimate)
		}
	default:
		q := o.read
		if o.plan != nil {
			q = &o.plan.q
		}
		r.check(finite(o.resp.Estimate) && (q.Agg.Func != query.Count || *o.resp.Estimate >= 0),
			"read %s estimate %v", q.ID, o.resp.Estimate)
	}
}

// checkServer checks the server-side state after a run: the writes
// invalidated cached answer spaces, and durability reported no error.
func (s *churnState) checkServer(r *report) {
	r.check(s.eng.CacheStats().Invalidated > 0, "serve-churn: writes invalidated no cached answer space")
	r.check(s.durErrs.Load() == 0, "serve-churn: %d durability errors", s.durErrs.Load())
}

// tracedChurn replays the run with spans around every client request and
// server handler call, then applies the run's mutation batches to a second
// durable store with Durable.Apply timed.
func tracedChurn(ctx context.Context, cfg config, r *report) (*report, error) {
	rec := trace.New()
	s, err := setupChurn(ctx, cfg, 0, rec)
	if err != nil {
		return nil, err
	}
	defer s.close()
	r.set("datagen.generate_s", s.env.genS)
	r.set("core.warmup_s", s.warmupS)

	// Untraced and traced passes play the same seeded schedule against
	// one server in turn; the traced pass's numbers are reported.
	untracedRep := newReport()
	begin := time.Now()
	s.play(ctx, cfg, untracedRep, nil, &calibrator{})
	untraced := time.Since(begin)
	adm0 := s.ctrl.Stats()
	begin = time.Now()
	phases := s.play(ctx, cfg, r, rec, &calibrator{})
	traced := time.Since(begin)
	r.checks = append(r.checks, untracedRep.checks...)
	s.checkServer(r)

	var lags []float64
	var overhead []float64
	maxBacklog, reads, draws, rounds := 0, 0, 0, 0
	var batches []live.Batch
	for _, ph := range phases {
		for _, l := range ph.run.Lateness() {
			lags = append(lags, ms(l))
		}
		maxBacklog = max(maxBacklog, ph.run.MaxBacklog)
		for _, o := range ph.outs {
			if o.status != http.StatusOK {
				continue
			}
			if o.kind == kindWrite {
				batches = append(batches, o.batch)
				continue
			}
			reads++
			draws += o.resp.SampleSize
			rounds += o.resp.rounds()
			overhead = append(overhead, ms(o.clientLat)-o.resp.ElapsedMS)
		}
	}
	r.set("gen.lag_p99_ms", percentile(lags, 99))
	r.set("gen.backlog", float64(maxBacklog))
	r.set("httpapi.overhead_ms", mean(overhead))
	r.set("core.draws", float64(draws)/float64(max(1, reads)))
	r.set("core.rounds", float64(rounds)/float64(max(1, reads)))
	// Admission counters are cumulative; difference out the set-up and
	// the untraced pass.
	adm := s.ctrl.Stats()
	if queued := adm.QueuedRequests - adm0.QueuedRequests; queued > 0 {
		r.set("admission.mean_queue_ms", (adm.MeanQueueMS*float64(adm.QueuedRequests)-
			adm0.MeanQueueMS*float64(adm0.QueuedRequests))/float64(queued))
	}
	r.set("admission.shed", float64(adm.ShedQueueFull+adm.ShedRateLimit+adm.ShedDraining-
		adm0.ShedQueueFull-adm0.ShedRateLimit-adm0.ShedDraining))
	st := s.eng.CacheStats()
	r.set("core.cache.hit_rate", st.HitRate())
	r.set("core.cache.invalidated", float64(st.Invalidated))
	r.set("core.cache.bytes", float64(st.Bytes))
	ds := s.dur.Stats()
	r.set("wal.appended", float64(ds.Appended))
	r.set("wal.bytes_per_batch", walBytes(s.dir)/float64(max(1, ds.Appended)))
	r.set("live.compactions", float64(s.compactions.Load()))
	var q quality
	for _, ph := range phases {
		for _, o := range ph.outs {
			if o.kind == kindPlan && o.status == http.StatusOK && o.resp.Estimate != nil && o.resp.MoE != nil {
				q.add(*o.resp.Estimate, *o.resp.MoE, s.env.truth[o.plan.q.ID])
			}
		}
	}
	q.report(r)
	var writes []float64
	for _, ph := range phases {
		writes = append(writes, ph.writes...)
	}
	r.set("write_p50_ms", percentile(writes, 50))

	apply, err := timeApply(cfg, s.env.ds.Graph, batches, rec)
	if err != nil {
		return nil, err
	}
	r.set("live.apply_ms", apply)
	return r, finishTrace(r, rec, cfg, "serve-churn", traced, untraced)
}

// timeApply applies batches in order to a fresh durable store over g under
// the workload's sync policy and returns the mean Durable.Apply time in ms.
func timeApply(cfg config, g *kg.Graph, batches []live.Batch, rec *trace.Recorder) (float64, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("wal-%d-apply", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, err := live.Recover(live.DurabilityConfig{Dir: dir, Sync: churnSync, SyncInterval: 100 * time.Millisecond}, g, 0)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for i, b := range batches {
		begin := time.Now()
		if _, err := d.Apply(b); err != nil {
			d.Close()
			return 0, fmt.Errorf("replay batch %d: %w", i, err)
		}
		dd := time.Since(begin)
		rec.Add("live", "apply", 0, -int64(i+1), begin, dd)
		total += dd
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	return ms(total) / float64(max(1, len(batches))), nil
}

// walBytes sums the sizes of the WAL segment files under dir.
func walBytes(dir string) float64 {
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	total := int64(0)
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			total += fi.Size()
		}
	}
	return float64(total)
}
