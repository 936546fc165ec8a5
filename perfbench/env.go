package main

import (
	"fmt"
	"time"

	"kgaq/internal/baselines"
	"kgaq/internal/datagen"
	"kgaq/perfbench/trace"
)

// errorBound is the relative error bound every workload queries at. It is
// the bound the repository's trajectory benchmark has always used.
const errorBound = 0.05

// env is the generated dbpedia-sim dataset with its τ-GT oracle: the
// graph and the 104-query workload come from datagen, and the truth of
// every guaranteed, non-grouped query from baselines.SSB at the profile's
// optimal τ. The profile fixes the graph; the workload seed varies only
// the per-query sampling seeds and, where a workload has them, its writes.
type env struct {
	prof  datagen.Profile
	ds    *datagen.Dataset
	truth map[string]float64 // query ID → τ-GT
	order []datagen.GenQuery // canonical execution order, without skipCategory
	genS  float64            // datagen.Generate time
}

func newEnv(rec *trace.Recorder) (*env, error) {
	prof := datagen.DBpediaSim()
	begin := time.Now()
	sp := rec.Begin("datagen", "generate", 0, 0)
	ds, err := datagen.Generate(prof)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	e := &env{prof: prof, ds: ds, truth: map[string]float64{}, genS: time.Since(begin).Seconds()}
	ssb, err := baselines.NewSSB(ds.Graph, ds.Model, prof.OptimalTau, 3)
	if err != nil {
		return nil, err
	}
	for _, q := range ds.Queries {
		if !q.Agg.Func.HasGuarantee() || q.Agg.GroupBy != "" {
			continue
		}
		ans, err := ssb.Execute(q.Agg)
		if err != nil {
			return nil, fmt.Errorf("τ-GT of %s: %w", q.ID, err)
		}
		e.truth[q.ID] = ans.Value
	}
	var run []datagen.GenQuery
	for _, q := range ds.Queries {
		if q.Category != skipCategory {
			run = append(run, q)
		}
	}
	e.order = interleave(run)
	return e, nil
}

// skipCategory is left out of the execution order. Its 12 MAX/MIN queries
// carry no guarantee and sample a fixed 4 rounds (Options.ExtremeRounds);
// about one run in a thousand observes no correct answer in those rounds
// and the engine returns estimate.ErrNoCorrect. A failed operation every
// few runs would make the failure count differ from run to run, so the
// closed workloads run the other 92 queries of the 7 guaranteed categories.
const skipCategory = "extreme"

// interleave orders queries round-robin across categories, so that every
// prefix of the order — which is all a run reaches when its queries are
// slow — holds each category in about its share of the workload.
func interleave(qs []datagen.GenQuery) []datagen.GenQuery {
	var cats []string
	byCat := map[string][]datagen.GenQuery{}
	for _, q := range qs {
		if _, ok := byCat[q.Category]; !ok {
			cats = append(cats, q.Category)
		}
		byCat[q.Category] = append(byCat[q.Category], q)
	}
	out := make([]datagen.GenQuery, 0, len(qs))
	// Weighted round-robin: each step takes from the category that is
	// furthest behind its share of the output so far.
	taken := map[string]int{}
	for len(out) < len(qs) {
		best, bestLag := "", -1.0
		for _, c := range cats {
			if taken[c] == len(byCat[c]) {
				continue
			}
			share := float64(len(byCat[c])) / float64(len(qs))
			lag := share*float64(len(out)+1) - float64(taken[c])
			if lag > bestLag {
				best, bestLag = c, lag
			}
		}
		out = append(out, byCat[best][taken[best]])
		taken[best]++
	}
	return out
}

// opSeed is the sampling seed of operation i of a run.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }
