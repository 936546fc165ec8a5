package estimate

import (
	"fmt"
	"math"
	"math/rand"

	"kgaq/internal/query"
	"kgaq/internal/stats"
)

// Observation is one sampled answer after correctness validation: its
// aggregated attribute value, its per-draw probability π′, and the
// validation verdict (semantic similarity ≥ τ and all filters passed).
//
// Under sharded execution (DESIGN.md "Sharded execution") the draw comes
// from one shard's stratum: Prob is then the probability conditional on the
// stratum, and the stratum's inclusion probability rides along in
// StratumWeight so the stratified combiner can merge per-shard samples
// without side tables. The zero values (Stratum 0, StratumWeight 0) mark an
// unstratified observation, which Regroup treats as a single stratum of
// weight 1.
type Observation struct {
	Value   float64
	Prob    float64
	Correct bool

	// Stratum identifies the shard stratum the draw came from.
	Stratum int
	// StratumWeight is the inclusion probability w_h of that stratum
	// (Σ π′ over the shard's owned answers); zero means unstratified.
	StratumWeight float64
}

// DivisorPolicy selects the estimator normalisation (see DESIGN.md).
type DivisorPolicy int

const (
	// SampleSize divides by |S| and weights by the correctness indicator —
	// the provably unbiased importance-sampling form, and the default.
	SampleSize DivisorPolicy = iota
	// CorrectOnly divides by |S⁺| and sums over the validated answers only,
	// the paper's printed Eq. 7–8. It coincides with SampleSize when every
	// sampled answer validates; otherwise it overestimates by |S|/|S⁺|.
	CorrectOnly
)

// String names the policy.
func (p DivisorPolicy) String() string {
	if p == CorrectOnly {
		return "correct-only"
	}
	return "sample-size"
}

// ErrNoObservations is returned when an estimate is requested over an empty
// sample.
var ErrNoObservations = fmt.Errorf("estimate: no observations")

// ErrNoCorrect is returned when an estimator that needs at least one correct
// answer (AVG, MAX, MIN, or any CorrectOnly estimate) sees none.
var ErrNoCorrect = fmt.Errorf("estimate: no correct answers in sample")

// Estimate computes the point estimate V̂ = f̂ₐ(S) (Eq. 7–9). COUNT ignores
// observation values. MAX and MIN return the extreme value among correct
// observations — supported without an accuracy guarantee, as in §VII.
func Estimate(fn query.AggFunc, obs []Observation, pol DivisorPolicy) (float64, error) {
	if len(obs) == 0 {
		return 0, ErrNoObservations
	}
	switch fn {
	case query.Count, query.Sum:
		num, nCorrect := htSum(fn, obs)
		switch pol {
		case CorrectOnly:
			if nCorrect == 0 {
				return 0, ErrNoCorrect
			}
			return num / float64(nCorrect), nil
		default:
			return num / float64(len(obs)), nil
		}
	case query.Avg:
		// Ratio estimator (Eq. 9): divisors cancel, so AVG is identical
		// under both policies.
		sum, _ := htSum(query.Sum, obs)
		cnt, nCorrect := htSum(query.Count, obs)
		if nCorrect == 0 || cnt == 0 {
			return 0, ErrNoCorrect
		}
		return sum / cnt, nil
	case query.Max, query.Min:
		best := math.NaN()
		for _, o := range obs {
			if !o.Correct {
				continue
			}
			if math.IsNaN(best) ||
				(fn == query.Max && o.Value > best) ||
				(fn == query.Min && o.Value < best) {
				best = o.Value
			}
		}
		if math.IsNaN(best) {
			return 0, ErrNoCorrect
		}
		return best, nil
	default:
		return 0, fmt.Errorf("estimate: unsupported aggregate %v", fn)
	}
}

// htSum returns Σ_{correct} v/π′ (v = 1 for COUNT) and the number of correct
// observations.
func htSum(fn query.AggFunc, obs []Observation) (float64, int) {
	sum := 0.0
	n := 0
	for _, o := range obs {
		if !o.Correct || o.Prob <= 0 {
			continue
		}
		n++
		v := 1.0
		if fn != query.Count {
			v = o.Value
		}
		sum += v / o.Prob
	}
	return sum, n
}

// GuaranteeConfig tunes the confidence-interval machinery of §IV-C.
type GuaranteeConfig struct {
	// Confidence is 1-α (default 0.95).
	Confidence float64
	// T is the number of BLB small samples (paper: t ≥ 3).
	T int
	// M is the BLB scale factor m ∈ [0.5, 1] (paper: 0.6).
	M float64
}

// DefaultGuarantee returns the paper's default configuration.
func DefaultGuarantee() GuaranteeConfig {
	return GuaranteeConfig{Confidence: 0.95, T: 3, M: 0.6}
}

func (c GuaranteeConfig) withDefaults() GuaranteeConfig {
	d := DefaultGuarantee()
	if c.Confidence <= 0 || c.Confidence >= 1 {
		c.Confidence = d.Confidence
	}
	if c.T <= 0 {
		c.T = d.T
	}
	if c.M <= 0 || c.M > 1 {
		c.M = d.M
	}
	return c
}

// grow returns buf resized to n, reallocating only when capacity is short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// MoE estimates the margin of error ε of the confidence interval V̂ ± ε at
// the configured confidence level with the Bag of Little Bootstraps
// (§IV-C) in its B→∞ limit. The sample is split into T small samples; for
// each, the standard deviation of the estimator over resamples of size |S|
// (the size of the full collected sample, so the bootstrap distribution
// matches the estimator actually reported) is computed in closed form
// instead of from B Monte-Carlo resamples (Eq. 11); Eq. 10 turns it into
// z·σ, and ε is the mean over small samples.
//
// COUNT and SUM under SampleSize are a mean of |S| i.i.d. HT terms, so
// σ² = popvar(terms)/|S| exactly. AVG and the CorrectOnly COUNT/SUM are
// ratios Σt/Σc; their σ is the delta-method linearisation MoEStratified
// also uses, popvar(t − R·c)/|S| / mean(c)² with R = mean(t)/mean(c) over
// the small sample. A small sample without correct answers contributes no
// ε. MAX and MIN carry no guarantee (§VII) and report ErrNoCorrect.
//
// The result is a deterministic function of (fn, obs, pol, cfg): r is
// unused, kept so existing callers compile, and may be nil.
func MoE(fn query.AggFunc, obs []Observation, pol DivisorPolicy,
	cfg GuaranteeConfig, r *rand.Rand) (float64, error) {

	cfg = cfg.withDefaults()
	if len(obs) == 0 {
		return 0, ErrNoObservations
	}
	if fn == query.Max || fn == query.Min {
		return 0, ErrNoCorrect
	}
	ratio := fn == query.Avg || pol == CorrectOnly
	z := stats.ZCritical(cfg.Confidence)

	t := cfg.T
	if t > len(obs) {
		t = len(obs)
	}
	chunk := len(obs) / t

	epsSum, epsN := 0.0, 0
	for i := 0; i < t; i++ {
		lo := i * chunk
		hi := lo + chunk
		if i == t-1 {
			hi = len(obs)
		}
		sigma, err := blbSigma(fn, ratio, obs[lo:hi], len(obs))
		if err != nil {
			// A small sample without correct answers contributes no ε; skip
			// it rather than failing the whole guarantee round.
			continue
		}
		epsSum += z * sigma
		epsN++
	}
	if epsN == 0 {
		return 0, ErrNoCorrect
	}
	return epsSum / float64(epsN), nil
}

// blbSigma returns the bootstrap standard deviation of fn's estimator over
// resamples of size n drawn with replacement from small, in closed form:
// the plain mean's popvar/n, or for a ratio estimator the delta-method
// variance of Σt/Σc. Two streaming passes, no buffers.
func blbSigma(fn query.AggFunc, ratio bool, small []Observation, n int) (float64, error) {
	w := float64(len(small))
	var meanT, meanC float64
	for _, o := range small {
		t, c := moeTerms(fn, o)
		meanT += t
		meanC += c
	}
	meanT /= w
	meanC /= w
	r := 0.0
	if ratio {
		if meanC == 0 {
			return 0, ErrNoCorrect
		}
		r = meanT / meanC
	}
	// t − R·c centred; for the plain mean R = 0 and this is t − mean(t).
	acc := 0.0
	for _, o := range small {
		t, c := moeTerms(fn, o)
		d := (t - meanT) - r*(c-meanC)
		acc += d * d
	}
	variance := acc / w / float64(n)
	if ratio {
		variance /= meanC * meanC
	}
	return math.Sqrt(variance), nil
}

// moeTerms returns one observation's numerator and denominator terms of the
// estimator Σt/Σc: t is the HT term v·1{correct}/π′ (v = 1 for COUNT); c is
// 1{correct}/π′ for AVG and the correct-draw indicator for COUNT/SUM (the
// CorrectOnly divisor, unused under SampleSize).
func moeTerms(fn query.AggFunc, o Observation) (t, c float64) {
	if !o.Correct || o.Prob <= 0 {
		return 0, 0
	}
	switch fn {
	case query.Count:
		return 1 / o.Prob, 1
	case query.Avg:
		return o.Value / o.Prob, 1 / o.Prob
	default:
		return o.Value / o.Prob, 1
	}
}

// Target returns the Theorem 2 MoE target V̂·eb/(1+eb): once ε is at or
// below it, |V̂−V|/V ≤ eb holds with the configured confidence.
func Target(vhat, eb float64) float64 {
	return math.Abs(vhat) * eb / (1 + eb)
}

// Satisfied reports the Theorem 2 termination condition ε ≤ V̂·eb/(1+eb).
// A zero estimate never satisfies it (the target collapses to zero).
func Satisfied(vhat, moe, eb float64) bool {
	if vhat == 0 {
		return false
	}
	return moe <= Target(vhat, eb)
}

// NextSampleSize returns |ΔS| per Eq. 12: the number of additional answers
// to collect so that ε shrinks to the Theorem 2 target, assuming σ ∝ 1/√N.
// It returns at least 1 whenever the termination condition is unmet.
func NextSampleSize(curSize int, moe, vhat, eb, m float64) int {
	tgt := Target(vhat, eb)
	if tgt <= 0 || moe <= tgt {
		return 0
	}
	if m <= 0 || m > 1 {
		m = 0.6
	}
	ratio := moe / tgt
	delta := int(float64(curSize) * (math.Pow(ratio, 2*m) - 1))
	if delta < 1 {
		delta = 1
	}
	return delta
}

// Interval is a confidence interval V̂ ± ε with its confidence level.
type Interval struct {
	Estimate   float64
	MoE        float64
	Confidence float64
}

// Low returns the lower bound of the interval.
func (iv Interval) Low() float64 { return iv.Estimate - iv.MoE }

// High returns the upper bound of the interval.
func (iv Interval) High() float64 { return iv.Estimate + iv.MoE }

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v float64) bool {
	return v >= iv.Low() && v <= iv.High()
}

// String renders the interval for logs and the CLI.
func (iv Interval) String() string {
	return fmt.Sprintf("%.4f ± %.4f (%.0f%%)", iv.Estimate, iv.MoE, iv.Confidence*100)
}
