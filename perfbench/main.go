// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the engine through its public entry points,
// checks that the answers are correct, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload warm --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced pass instead and reports the per-layer metrics. See
// README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"kgaq/perfbench/trace"
)

// clients bounds the client threads or connections of every workload: the
// CPU count of the 2-CPU hosts the benchmark is sized for.
const clients = 2

// Each run repeats its whole set-up at least setupMinReps times, and
// more, up to setupMaxReps, until setupBudget of set-up time has passed;
// setup_s is the median, so one slow repetition does not move it. A
// set-up of a tenth of a second (cold, federated) is otherwise as noisy
// as the host's millisecond stalls.
const (
	setupMinReps = 3
	setupMaxReps = 11
	setupBudget  = 2 * time.Second
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	outDir  string // span files and scratch data (WAL), inside the checkout
}

// report is what a workload measured.
type report struct {
	attempted int
	failed    int
	checks    []string // failed correctness checks
	metrics   map[string]float64
	notes     map[string]string // how a metric was taken, for the summary
}

func newReport() *report { return &report{metrics: map[string]float64{}, notes: map[string]string{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(ctx context.Context, cfg config) (*report, error){
	"warm":        runWarm,
	"cold":        runCold,
	"serve-churn": runServeChurn,
	"federated":   runFederated,
}

// endToEnd names every end-to-end metric with its unit, printed by
// --trace 0 on every workload; each must be measured and positive.
// --trace 1 prints perLayer instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"second_p50_ms", "ms"},
	{"second_tail_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"heap_live_mb", "MB"},
}

type metricDef struct{ name, unit string }

// summaryRow is one line of the summary --trace 0 prints above its result:
// the end-to-end metrics under the names README.md gives them, each on the
// workloads it applies to (nil: all). from names the report entry that
// holds it when that differs, as for the second_* slots of endToEnd.
type summaryRow struct {
	name, unit, from string
	on               []string
}

var summaryRows = []summaryRow{
	{"setup_s", "s", "", nil},
	{"latency_p50_ms", "ms", "", nil},
	{"latency_tail_ms", "ms", "", nil},
	{"queries_per_s", "1/s", "", []string{"warm", "cold", "federated"}},
	{"sharded_p50_ms", "ms", "second_p50_ms", []string{"cold"}},
	{"sharded_tail_ms", "ms", "second_tail_ms", []string{"cold"}},
	{"write_p50_ms", "ms", "second_p50_ms", []string{"serve-churn"}},
	{"write_tail_ms", "ms", "second_tail_ms", []string{"serve-churn"}},
	{"max_ok_rate_rps", "1/s", "", []string{"serve-churn"}},
	{"rel_error_p50", "ratio", "", []string{"warm", "cold", "federated"}},
	{"coverage", "share", "", []string{"warm", "cold", "federated"}},
	{"failed_share", "share", "", nil},
	{"degraded_share", "share", "", []string{"serve-churn"}},
	{"heap_live_mb", "MB", "", nil},
}

// printSummary prints the summary rows that apply to workload w.
func printSummary(w string, r *report) {
	fmt.Printf("perfbench %s: end-to-end metrics, times at the reference host speed\n", w)
	for _, row := range summaryRows {
		if row.on != nil && !slices.Contains(row.on, w) {
			continue
		}
		from := cmp.Or(row.from, row.name)
		fmt.Printf("  %-16s %12.6g %-5s %s\n", row.name, r.metrics[from], row.unit, r.notes[from])
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: warm, cold, serve-churn, federated")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured run length in seconds")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced pass with per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for span files and scratch data")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (warm|cold|serve-churn|federated), --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, outDir: *out}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.set("failed_share", float64(rep.failed)/float64(max(1, rep.attempted)))
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	} else {
		printSummary(*name, rep)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!cfg.traced && v <= 0) {
			rep.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	for _, c := range rep.checks {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, c)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.checks) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(rep.checks) > 0 {
		os.Exit(1)
	}
}

// parallel runs f(worker, i) for every i in [0, n) on clients goroutines
// and returns their errors joined.
func parallel(n int, f func(worker, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += clients {
				if err := f(w, i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// timeSetup runs build as often as the set-up constants above say, keeps
// the last result and returns it with the median set-up time. Earlier
// results are released with discard before the next repetition starts.
// cal samples the host's speed before each repetition.
func timeSetup[T any](cal *calibrator, build func(rep int) (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	spent := time.Duration(0)
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || spent < setupBudget); rep++ {
		if rep > 0 {
			discard(last)
			runtime.GC()
		}
		cal.sample()
		begin := time.Now()
		v, err := build(rep)
		if err != nil {
			return last, 0, err
		}
		d := time.Since(begin)
		spent += d
		times = append(times, d.Seconds())
		last = v
	}
	return last, median(times), nil
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapLiveMB forces a collection and returns the live heap in MB. keep is
// held alive until after the measurement. The second collection empties
// the sync.Pool caches the first one only moves aside.
func heapLiveMB(keep ...any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / 1e6
}

// latencies reports a latency sample as <prefix>_p50_ms and, at the
// workload's fixed tail percentile, <prefix>_tail_ms. Each workload fixes
// its tail percentile as the highest one with at least ten samples beyond
// it in a 20 s run on a 2-CPU host, with room for a slower host; a run
// that falls short says so on standard error.
func (r *report) latencies(prefix string, xs []float64, tailPct float64) {
	r.set(prefix+"_p50_ms", percentile(xs, 50))
	r.set(prefix+"_tail_ms", percentile(xs, tailPct))
	r.notes[prefix+"_p50_ms"] = fmt.Sprintf("n=%d", len(xs))
	r.notes[prefix+"_tail_ms"] = fmt.Sprintf("p%g, n=%d", tailPct, len(xs))
	beyond := float64(len(xs)) * (100 - tailPct) / 100
	fmt.Fprintf(os.Stderr, "perfbench: %s: n=%d p50=%.3fms p%g=%.3fms (%.1f samples beyond)\n",
		prefix, len(xs), percentile(xs, 50), tailPct, percentile(xs, tailPct), beyond)
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: fewer than ten samples beyond p%g\n", prefix, tailPct)
	}
}

// quality accumulates interval calibration against τ-GT.
type quality struct {
	relErr  []float64
	covered int
	n       int
}

// add scores one guaranteed answer against its truth.
func (q *quality) add(est, moe, truth float64) {
	q.n++
	if math.Abs(est-truth) <= moe {
		q.covered++
	}
	if truth != 0 {
		q.relErr = append(q.relErr, math.Abs(est-truth)/math.Abs(truth))
	}
}

func (q *quality) report(r *report) {
	r.check(q.n > 0, "no guaranteed answers to score against τ-GT")
	r.set("rel_error_p50", median(q.relErr))
	if q.n > 0 {
		r.set("coverage", float64(q.covered)/float64(q.n))
	}
	r.notes["rel_error_p50"] = fmt.Sprintf("n=%d", len(q.relErr))
	r.notes["coverage"] = fmt.Sprintf("n=%d", q.n)
	fmt.Fprintf(os.Stderr, "perfbench: quality: n=%d rel_error_p50=%.4f coverage=%.4f\n",
		q.n, median(q.relErr), r.metrics["coverage"])
}

// finishTrace writes the spans and reports each layer's self time over
// the traced pass (set-up spans, query id 0, are left out: set-up has its
// own metrics). The self times of the timed operations' spans (query id
// > 0; replay-probe spans carry negative ids) are summed next to the
// untraced wall time of the same operations. The generator's own self
// time in those operations — time inside an operation that no layer span
// below it covers — is reported as the unattributed share of operation
// time.
func finishTrace(r *report, rec *trace.Recorder, cfg config, workloadName string, tracedWall, untracedWall time.Duration) error {
	spans := rec.Spans()
	var pass, ops []trace.Span
	for _, s := range spans {
		if s.Query != 0 {
			pass = append(pass, s)
		}
		if s.Query > 0 {
			ops = append(ops, s)
		}
	}
	self := trace.SelfTimes(pass)
	for _, layer := range selfLayers {
		r.set("trace.self."+layer+"_s", self[layer].Seconds())
	}
	sum, opTime := time.Duration(0), time.Duration(0)
	for _, d := range trace.SelfTimes(ops) {
		sum += d
	}
	for _, s := range ops {
		if s.Parent == 0 {
			opTime += time.Duration(s.End - s.Start)
		}
	}
	r.set("trace.ops_self_sum_s", sum.Seconds())
	r.set("trace.untraced_s", untracedWall.Seconds())
	if opTime > 0 {
		r.set("trace.unattributed_share", trace.SelfTimes(ops)["gen"].Seconds()/opTime.Seconds())
	}
	if untracedWall > 0 {
		r.set("trace.overhead_share", tracedWall.Seconds()/untracedWall.Seconds()-1)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.json", workloadName, cfg.seed))
	return rec.WriteFile(path)
}
