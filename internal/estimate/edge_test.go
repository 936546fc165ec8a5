package estimate

import (
	"math"
	"math/rand"
	"testing"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// A stratum the allocator never reached (zero draws) must not break the
// merge: the empty stratum contributes zero to the estimate and the
// variance, and the populated strata carry the result — exactly the
// documented low-bias contract callers own coverage for.
func TestStratifiedMergeZeroDrawStratum(t *testing.T) {
	populated := Stratum{Weight: 0.5, Obs: []Observation{
		{Value: 10, Prob: 0.1, Correct: true},
		{Value: 12, Prob: 0.1, Correct: true},
		{Value: 8, Prob: 0.1, Correct: true},
		{Value: 11, Prob: 0.1, Correct: false},
	}}
	withEmpty := []Stratum{populated, {Weight: 0.5}}
	without := []Stratum{populated}

	for _, fn := range []query.AggFunc{query.Count, query.Sum, query.Avg} {
		vEmpty, err := EstimateStratified(fn, withEmpty, SampleSize)
		if err != nil {
			t.Fatalf("%v with empty stratum: %v", fn, err)
		}
		vRef, err := EstimateStratified(fn, without, SampleSize)
		if err != nil {
			t.Fatalf("%v reference: %v", fn, err)
		}
		if vEmpty != vRef {
			t.Fatalf("%v: empty stratum changed estimate %v -> %v", fn, vRef, vEmpty)
		}
		eEmpty, err := MoEStratified(fn, withEmpty, SampleSize, DefaultGuarantee())
		if err != nil {
			t.Fatalf("%v MoE with empty stratum: %v", fn, err)
		}
		eRef, err := MoEStratified(fn, without, SampleSize, DefaultGuarantee())
		if err != nil {
			t.Fatalf("%v MoE reference: %v", fn, err)
		}
		if eEmpty != eRef {
			t.Fatalf("%v: empty stratum changed MoE %v -> %v", fn, eRef, eEmpty)
		}
	}

	// All strata empty: the merge reports the no-observations error rather
	// than inventing a zero estimate.
	if _, err := EstimateStratified(query.Sum, []Stratum{{Weight: 1}}, SampleSize); err == nil {
		t.Fatal("all-empty strata produced an estimate")
	}
}

// AllocateDraws with zero-sigma and zero-weight strata: counts stay
// non-negative, sum exactly to the total, and a stratum with no share never
// starves the floors when the total covers them.
func TestAllocateDrawsDegenerateStrata(t *testing.T) {
	cases := []struct {
		st    []StratumStats
		haveW bool // some positive weight: the per-stratum floors apply
	}{
		{[]StratumStats{{Weight: 0.5}, {Weight: 0.5}}, true},                 // no variance signal
		{[]StratumStats{{Weight: 1}, {Weight: 0}}, true},                     // weightless stratum
		{[]StratumStats{{Weight: 0}, {Weight: 0}}, false},                    // fully degenerate: all draws land on stratum 0
		{[]StratumStats{{Weight: 0.9, Sigma: 100}, {Weight: 0.1}}, true},     // one-sided signal
		{[]StratumStats{{Weight: 1e-300, Sigma: 1e-300}, {Weight: 1}}, true}, // underflow-edge weight
	}
	for ci, c := range cases {
		for _, total := range []int{0, 1, 2, 7, 100} {
			out := AllocateDraws(total, c.st)
			sum := 0
			for i, n := range out {
				if n < 0 {
					t.Fatalf("case %d total %d: negative allocation %v", ci, total, out)
				}
				if c.haveW && total >= len(c.st) && n == 0 {
					t.Fatalf("case %d total %d: stratum %d starved below floor: %v", ci, total, i, out)
				}
				sum += n
			}
			if sum != total {
				t.Fatalf("case %d total %d: allocations sum to %d: %v", ci, total, sum, out)
			}
		}
	}
}

// A single-observation sample is the smallest input the BLB machinery can
// see: every resample is that observation repeated, so the bootstrap spread
// is exactly zero for a correct draw, and the CorrectOnly estimators
// surface ErrNoCorrect — never a panic, never NaN — for an incorrect one.
func TestMoESingleObservation(t *testing.T) {
	correct := []Observation{{Value: 42, Prob: 0.2, Correct: true}}
	for _, fn := range []query.AggFunc{query.Count, query.Sum, query.Avg} {
		eps, err := MoE(fn, correct, SampleSize, DefaultGuarantee(), nil)
		if err != nil {
			t.Fatalf("%v single correct: %v", fn, err)
		}
		if eps != 0 || math.IsNaN(eps) {
			t.Fatalf("%v single correct: MoE %v, want exactly 0", fn, eps)
		}
	}

	incorrect := []Observation{{Value: 42, Prob: 0.2, Correct: false}}
	// SampleSize COUNT/SUM estimate 0 with zero spread; the ratio and
	// CorrectOnly forms have no defined estimate at all.
	if eps, err := MoE(query.Sum, incorrect, SampleSize, DefaultGuarantee(), nil); err != nil || eps != 0 {
		t.Fatalf("SUM single incorrect under SampleSize: eps=%v err=%v, want 0, nil", eps, err)
	}
	for _, fn := range []query.AggFunc{query.Count, query.Sum} {
		if _, err := MoE(fn, incorrect, CorrectOnly, DefaultGuarantee(), nil); err == nil {
			t.Fatalf("%v single incorrect under CorrectOnly: want ErrNoCorrect", fn)
		}
	}
	if _, err := MoE(query.Avg, incorrect, SampleSize, DefaultGuarantee(), nil); err == nil {
		t.Fatal("AVG single incorrect: want ErrNoCorrect")
	}
}

// The closed-form MoE is the B→∞ limit of the Monte-Carlo Bag of Little
// Bootstraps: on samples with a heavy-tailed 1/π′ it must agree with a
// brute-force BLB of B = 5000 resamples per small sample within sampling
// tolerance, for every guaranteed aggregate under both divisor policies.
func TestMoEClosedFormMatchesBLB(t *testing.T) {
	r := stats.NewRand(17)
	obs := make([]Observation, 360)
	for i := range obs {
		// 1/π′ = 100·U^(-1/2.5): Pareto-tailed with finite variance.
		obs[i] = Observation{
			Value:   10 + 90*r.Float64(),
			Prob:    0.01 * math.Pow(1-r.Float64(), 1/2.5),
			Correct: r.Float64() < 0.7,
		}
	}
	cfg := DefaultGuarantee()
	for _, pol := range []DivisorPolicy{SampleSize, CorrectOnly} {
		for _, fn := range []query.AggFunc{query.Count, query.Sum, query.Avg} {
			got, err := MoE(fn, obs, pol, cfg, nil)
			if err != nil {
				t.Fatalf("%v/%v: %v", fn, pol, err)
			}
			want := bruteForceBLB(t, fn, obs, pol, cfg, 5000, stats.NewRand(int64(fn)+10*int64(pol)))
			rel := math.Abs(got-want) / want
			t.Logf("%v/%v: closed form %.6g, Monte-Carlo %.6g (%.2f%%)", fn, pol, got, want, 100*rel)
			if rel > 0.03 {
				t.Errorf("%v/%v: closed form %.6g vs Monte-Carlo BLB %.6g (%.1f%% apart)",
					fn, pol, got, want, 100*rel)
			}
		}
	}
}

// bruteForceBLB is the Monte-Carlo Bag of Little Bootstraps the closed form
// replaces: b resamples of size |S| with replacement from each of the T
// small samples, Eq. 11's σ over their estimates, and the mean of z·σ.
func bruteForceBLB(t *testing.T, fn query.AggFunc, obs []Observation, pol DivisorPolicy,
	cfg GuaranteeConfig, b int, r *rand.Rand) float64 {

	t.Helper()
	chunk := len(obs) / cfg.T
	resample := make([]Observation, len(obs))
	ests := make([]float64, 0, b)
	z := stats.ZCritical(cfg.Confidence)
	sum := 0.0
	for i := 0; i < cfg.T; i++ {
		small := obs[i*chunk : (i+1)*chunk]
		ests = ests[:0]
		for rep := 0; rep < b; rep++ {
			for j := range resample {
				resample[j] = small[r.Intn(len(small))]
			}
			if v, err := Estimate(fn, resample, pol); err == nil {
				ests = append(ests, v)
			}
		}
		if len(ests) < b/2 {
			t.Fatalf("%v/%v: only %d of %d resamples estimable", fn, pol, len(ests), b)
		}
		sum += z * stats.StdDev(ests)
	}
	return sum / float64(cfg.T)
}
