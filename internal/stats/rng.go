package stats

import (
	"math/rand"
)

// NewRand returns a deterministic *rand.Rand seeded with seed. All random
// behaviour in kgaq flows through explicitly seeded generators so that
// experiments are reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Fork derives a child generator from parent. Subsystems that need
// independent random streams (e.g. each bootstrap replicate, each walker)
// fork the experiment-level generator instead of sharing one, which keeps
// results independent of evaluation order.
func Fork(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}

// Splitmix is a splitmix64 generator: a single multiply-xorshift chain per
// output, no allocation, no locking — a cheap way to derive decorrelated
// seeds from a structured key (the federated coordinator seeds each
// member's per-round draws with it). Not for cryptographic or
// statistical-testing use.
//
// The zero value is a valid generator (a fixed stream); seed it via
// NewSplitmix for a reproducible stream keyed to an experiment seed.
type Splitmix struct {
	state uint64
}

// NewSplitmix returns a generator whose stream is determined by seed.
func NewSplitmix(seed int64) Splitmix {
	return Splitmix{state: uint64(seed)}
}

// Next returns the next 64 uniform bits.
func (s *Splitmix) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n) for 0 < n ≤ 2³¹ using Lemire's
// multiply-shift range reduction (bias < 2⁻³² per draw, immaterial against
// bootstrap resampling noise and far cheaper than a rejection loop).
func (s *Splitmix) Intn(n int) int {
	return int((uint64(uint32(s.Next())) * uint64(n)) >> 32)
}

// WeightedIndex draws an index in [0,len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise -1 is returned.
func WeightedIndex(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return -1
		}
		total += w
	}
	if total <= 0 {
		return -1
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1 // guard against floating point slack
}

// Alias implements Walker's alias method for O(1) categorical sampling from
// a fixed discrete distribution. Building the table is O(n); it is the
// workhorse behind continuous sampling, where the engine draws thousands of
// i.i.d. answers from the stationary distribution π′.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table for the given weights. Weights must be
// non-negative with a positive sum; NewAlias returns nil otherwise.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		return nil
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil
		}
		total += w
	}
	if total <= 0 {
		return nil
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Draw samples one index from the alias table.
func (a *Alias) Draw(r *rand.Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// N returns the number of categories in the table.
func (a *Alias) N() int { return len(a.prob) }
