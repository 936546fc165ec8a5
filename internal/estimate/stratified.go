package estimate

import (
	"math"
	"sort"
	"sync"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// This file implements the cross-shard combiner of the sharded execution
// model (DESIGN.md "Sharded execution"): per-shard samples are disjoint
// strata of the candidate-answer space, each drawn from its own conditional
// distribution π′|shard, and the merged estimate is the classic stratified
// Horvitz–Thompson form
//
//	V̂ = Σ_h  f̂(S_h),   f̂(S_h) = (1/n_h) Σ_{i∈S_h} v_i·1{correct}/p_i
//
// where p_i = π′(i)/w_h is the draw probability conditional on the stratum
// and w_h = Σ π′(owned answers) is the shard's inclusion probability. The
// inclusion probability is folded into the conditional p_i carried on each
// Observation, so each shard term estimates its stratum total
// E[f̂(S_h)] = Σ_{u∈A_h} v_u·1{correct} without bias, whatever n_h the
// allocator chose — the merge is unbiased for COUNT and SUM and consistent
// for AVG, exactly the properties the single-shard estimators carry.

// Stratum is one shard's sample: its inclusion probability and the
// observations drawn from its conditional distribution.
type Stratum struct {
	// Weight is the stratum's inclusion probability w_h ∈ (0, 1]; the
	// weights of a query's strata sum to 1.
	Weight float64
	// Obs are the draws from the stratum's conditional distribution
	// (Observation.Prob is conditional on the stratum).
	Obs []Observation
}

// Regroup reassembles flat observations into strata using the Stratum and
// StratumWeight fields, in ascending stratum order. Observations with a
// zero StratumWeight (the unsharded default) land in one stratum of weight
// 1, so a regrouped-then-combined unstratified sample reproduces the plain
// estimator.
func Regroup(obs []Observation) []Stratum {
	byID := map[int]*Stratum{}
	var ids []int
	for _, o := range obs {
		w := o.StratumWeight
		if w <= 0 {
			w = 1
		}
		st, ok := byID[o.Stratum]
		if !ok {
			st = &Stratum{Weight: w}
			byID[o.Stratum] = st
			ids = append(ids, o.Stratum)
		}
		st.Obs = append(st.Obs, o)
	}
	sort.Ints(ids)
	out := make([]Stratum, len(ids))
	for k, id := range ids {
		out[k] = *byID[id]
	}
	return out
}

// EstimateStratified computes the merged point estimate over per-shard
// strata. COUNT and SUM merge as Σ_h f̂(S_h) over conditional-probability
// HT means; AVG is the ratio of the stratified SUM and COUNT; MAX and MIN
// are the extreme over every stratum's correct observations (weights play
// no role for extremes).
//
// A stratum without draws contributes zero, biasing the merge low by that
// stratum's share — callers own coverage. The engine guarantees it by
// flooring the first round at the stratum count (core's firstSample) and
// every later allocation at one draw per stratum (AllocateDraws); a caller
// driving this combiner directly with fewer draws than strata inherits the
// bias.
func EstimateStratified(fn query.AggFunc, strata []Stratum, pol DivisorPolicy) (float64, error) {
	total := 0
	for _, st := range strata {
		total += len(st.Obs)
	}
	if total == 0 {
		return 0, ErrNoObservations
	}
	switch fn {
	case query.Count, query.Sum:
		v, _, err := stratifiedSum(fn, strata, pol)
		return v, err
	case query.Avg:
		// Ratio estimator over the stratified totals; divisor policy cancels
		// in spirit but each component uses the requested policy.
		sum, nCorrect, _ := stratifiedSumLenient(query.Sum, strata, pol)
		cnt, _, _ := stratifiedSumLenient(query.Count, strata, pol)
		if nCorrect == 0 || cnt == 0 {
			return 0, ErrNoCorrect
		}
		return sum / cnt, nil
	case query.Max, query.Min:
		flat := make([]Observation, 0, total)
		for _, st := range strata {
			flat = append(flat, st.Obs...)
		}
		return Estimate(fn, flat, pol)
	default:
		return 0, ErrNoObservations
	}
}

// stratifiedSum merges COUNT/SUM strata under the policy, failing with
// ErrNoCorrect when CorrectOnly sees no correct draw anywhere.
func stratifiedSum(fn query.AggFunc, strata []Stratum, pol DivisorPolicy) (float64, int, error) {
	v, nCorrect, _ := stratifiedSumLenient(fn, strata, pol)
	if pol == CorrectOnly && nCorrect == 0 {
		return 0, 0, ErrNoCorrect
	}
	return v, nCorrect, nil
}

// stratifiedSumLenient is stratifiedSum without the CorrectOnly failure:
// strata with no correct draws simply contribute zero.
func stratifiedSumLenient(fn query.AggFunc, strata []Stratum, pol DivisorPolicy) (float64, int, int) {
	acc := 0.0
	nCorrect := 0
	n := 0
	for _, st := range strata {
		if len(st.Obs) == 0 {
			continue
		}
		n += len(st.Obs)
		// The stratum's inclusion probability is already folded into the
		// conditional draw probabilities, so the per-stratum HT mean
		// estimates the stratum total directly; the merge is a plain sum.
		num, c := htSum(fn, st.Obs)
		nCorrect += c
		switch pol {
		case CorrectOnly:
			if c > 0 {
				acc += num / float64(c)
			}
		default:
			acc += num / float64(len(st.Obs))
		}
	}
	return acc, nCorrect, n
}

// MoEStratified estimates the margin of error of the stratified estimate
// with the closed-form stratified CLT variance: the strata are independent,
// so Var(V̂) = Σ_h s_h²/n_h with s_h the sample standard deviation of
// stratum h's per-draw HT terms, and ε = z·σ at the configured confidence.
// Like the unsharded path's closed-form BLB (MoE) it is one O(|S|) pass,
// but it needs no small samples: the BLB exists to see the pooled sample's
// heavy HT tail, the strata localise that tail, and each stratum term is a
// plain mean of i.i.d. draws whose variance the within-stratum s_h captures
// directly. AVG uses the delta-method linearisation of the ratio. Strata too small to carry a
// variance signal (a single draw) are pooled and assessed jointly, erring
// toward a wider interval.
//
// MAX and MIN carry no guarantee (§VII) and report ErrNoCorrect.
func MoEStratified(fn query.AggFunc, strata []Stratum, pol DivisorPolicy,
	cfg GuaranteeConfig) (float64, error) {

	cfg = cfg.withDefaults()
	total := 0
	for _, st := range strata {
		total += len(st.Obs)
	}
	if total == 0 {
		return 0, ErrNoObservations
	}
	if fn == query.Max || fn == query.Min {
		return 0, ErrNoCorrect
	}

	// Per-stratum HT terms for the numerator (value) and, for AVG's
	// linearisation, the denominator (correctness indicator). The term
	// buffers come from the shared estimator pool: this merge runs once per
	// guarantee round per spec, and reallocating them was a measurable slice
	// of the sharded round's allocations.
	sumFn := fn
	if fn == query.Avg {
		sumFn = query.Sum
	}
	sc := stratPool.Get().(*stratScratch)
	defer stratPool.Put(sc)
	variance := 0.0
	pooledS, pooledC := sc.pooledS[:0], sc.pooledC[:0] // single-draw strata, assessed jointly
	var ratio float64
	var denom float64
	if fn == query.Avg {
		s, nCorrect, _ := stratifiedSumLenient(query.Sum, strata, pol)
		c, _, _ := stratifiedSumLenient(query.Count, strata, pol)
		if nCorrect == 0 || c == 0 {
			return 0, ErrNoCorrect
		}
		ratio, denom = s/c, c
	}
	anyCorrect := false
	for _, st := range strata {
		n := len(st.Obs)
		if n == 0 {
			continue
		}
		sc.sTerms = grow(sc.sTerms, n)
		sc.cTerms = grow(sc.cTerms, n)
		sTerms, cTerms := sc.sTerms, sc.cTerms
		for i := range sTerms {
			sTerms[i], cTerms[i] = 0, 0
		}
		for i, o := range st.Obs {
			if !o.Correct || o.Prob <= 0 {
				continue
			}
			anyCorrect = true
			v := 1.0
			if sumFn != query.Count {
				v = o.Value
			}
			sTerms[i] = v / o.Prob
			cTerms[i] = 1 / o.Prob
		}
		if n < 2 {
			pooledS = append(pooledS, sTerms[0])
			pooledC = append(pooledC, cTerms[0])
			continue
		}
		variance += stratumVariance(fn, sTerms, cTerms, ratio) / float64(n)
	}
	if !anyCorrect {
		return 0, ErrNoCorrect
	}
	if len(pooledS) > 0 {
		// Single-draw strata cannot estimate their own variance; treat their
		// union as one proportionally sampled pseudo-stratum. The pooled
		// spread includes between-stratum variation, so the interval errs
		// wide. A lone single-draw stratum contributes its squared term —
		// maximally conservative — which the allocator's next round resolves.
		if m := len(pooledS); m >= 2 {
			variance += stratumVariance(fn, pooledS, pooledC, ratio) / float64(m)
		} else {
			variance += pooledS[0] * pooledS[0]
		}
	}
	sc.pooledS, sc.pooledC = pooledS, pooledC // retain growth for reuse
	if fn == query.Avg {
		variance /= denom * denom
	}
	if variance < 0 {
		variance = 0 // delta-method cross terms can dip below zero numerically
	}
	return stats.ZCritical(cfg.Confidence) * math.Sqrt(variance), nil
}

// stratumVariance returns the per-draw variance of one stratum's estimator
// terms: the plain HT-term sample variance for COUNT and SUM, the
// delta-method combination Var(s) + R²·Var(c) − 2R·Cov(s,c) for AVG.
func stratumVariance(fn query.AggFunc, sTerms, cTerms []float64, ratio float64) float64 {
	n := float64(len(sTerms))
	var meanS, meanC float64
	for i := range sTerms {
		meanS += sTerms[i]
		meanC += cTerms[i]
	}
	meanS /= n
	meanC /= n
	var varS, varC, cov float64
	for i := range sTerms {
		ds, dc := sTerms[i]-meanS, cTerms[i]-meanC
		varS += ds * ds
		varC += dc * dc
		cov += ds * dc
	}
	varS /= n - 1
	varC /= n - 1
	cov /= n - 1
	if fn != query.Avg {
		return varS
	}
	return varS + ratio*ratio*varC - 2*ratio*cov
}

// stratScratch is the reusable working memory of the stratified merge,
// pooled like moeScratch so a warm sharded guarantee round allocates
// nothing in the combiner.
type stratScratch struct {
	sTerms, cTerms, pooledS, pooledC []float64
}

var stratPool = sync.Pool{New: func() any { return new(stratScratch) }}

// StratumSigma returns the sample standard deviation of a stratum's
// per-draw Horvitz–Thompson terms v·1{correct}/π′ — the variance signal the
// Neyman allocator weighs strata by. COUNT uses v = 1; a stratum with fewer
// than two draws reports zero (no signal yet). Computed in two streaming
// passes (no term buffer): the allocator refreshes this per stratum per
// round.
func StratumSigma(fn query.AggFunc, obs []Observation) float64 {
	if len(obs) < 2 {
		return 0
	}
	term := func(o Observation) float64 {
		if !o.Correct || o.Prob <= 0 {
			return 0
		}
		v := 1.0
		if fn != query.Count {
			v = o.Value // SUM terms; for AVG the numerator dominates the ratio's variance
		}
		return v / o.Prob
	}
	mean := 0.0
	for _, o := range obs {
		mean += term(o)
	}
	mean /= float64(len(obs))
	acc := 0.0
	for _, o := range obs {
		d := term(o) - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(obs)-1))
}

// StratumStats carries one stratum's allocation inputs.
type StratumStats struct {
	// Weight is the stratum's inclusion probability w_h.
	Weight float64
	// Sigma is the stratum's per-draw HT-term standard deviation (see
	// StratumSigma); zero means no variance signal yet.
	Sigma float64
}

// AllocateDraws splits a round's additional draws across strata. With
// variance signals it uses Neyman allocation — shares proportional to
// w_h·σ_h, which minimises the variance of the merged estimate for a fixed
// total — and falls back to proportional allocation (shares ∝ w_h, the
// behaviour of unstratified sampling in expectation) while σ is unknown.
// Every stratum is floored at one draw whenever total ≥ len(stats); when
// total is smaller than the stratum count the floors cannot hold and the
// highest-share strata win the draws — callers needing full coverage (the
// stratified estimator does; see EstimateStratified) must size the round
// at len(stats) or more, as core's firstSample does. The returned counts
// sum exactly to total (largest-remainder rounding, deterministic).
func AllocateDraws(total int, stats []StratumStats) []int {
	return AllocateDrawsInto(nil, total, stats)
}

// allocScratch is the pooled working memory of AllocateDrawsInto: the
// Neyman shares and the largest-remainder worklist, one slot per stratum.
type allocScratch struct {
	shares []float64
	fracs  []frac
}

type frac struct {
	idx int
	rem float64
}

var allocPool = sync.Pool{New: func() any { return new(allocScratch) }}

// AllocateDrawsInto is AllocateDraws writing into dst (reused when its
// capacity suffices) so the per-round sharded draw path reuses one
// allocation buffer across rounds; the internal share/remainder scratch is
// pooled, so a warm call allocates nothing.
func AllocateDrawsInto(dst []int, total int, stats []StratumStats) []int {
	if cap(dst) < len(stats) {
		dst = make([]int, len(stats))
	}
	out := dst[:len(stats)]
	for i := range out {
		out[i] = 0
	}
	if total <= 0 || len(stats) == 0 {
		return out
	}
	sc := allocPool.Get().(*allocScratch)
	defer allocPool.Put(sc)
	sc.shares = grow(sc.shares, len(stats))
	shares := sc.shares
	sum := 0.0
	for i, st := range stats {
		shares[i] = st.Weight * st.Sigma
		sum += shares[i]
	}
	if sum <= 0 {
		// No variance signal: proportional allocation.
		for i, st := range stats {
			shares[i] = st.Weight
			sum += st.Weight
		}
	}
	if sum <= 0 {
		out[0] = total
		return out
	}

	// Floors first, then largest-remainder on what's left.
	remaining := total
	if total >= len(stats) {
		for i := range out {
			out[i] = 1
		}
		remaining = total - len(stats)
	}
	if cap(sc.fracs) < len(stats) {
		sc.fracs = make([]frac, len(stats))
	}
	fracs := sc.fracs[:len(stats)]
	assigned := 0
	for i := range stats {
		exact := float64(remaining) * shares[i] / sum
		whole := int(exact)
		out[i] += whole
		assigned += whole
		fracs[i] = frac{idx: i, rem: exact - float64(whole)}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for k := 0; assigned < remaining; k++ {
		out[fracs[k%len(fracs)].idx]++
		assigned++
	}
	return out
}
