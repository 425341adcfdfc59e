// Package stats provides the deterministic random-number, distribution,
// and descriptive-statistics substrate used by every model in vidperf.
//
// All simulation components draw randomness through *Rand, a splitmix64
// generator with an explicit seed, so that a scenario seed fully determines
// the generated trace across Go versions and platforms (math/rand makes no
// such stability promise). The package also implements the empirical
// machinery the paper's analysis needs: quantiles, coefficient of variation,
// ECDF/CCDF curves, and binned scatter summaries (mean/median/IQR per bin).
package stats

import "math"

// Rand is a deterministic pseudo-random source based on splitmix64.
// It is not safe for concurrent use; give each concurrent component its
// own Rand derived via Split or NewRand.
type Rand struct {
	state uint64
	// spare holds a cached second normal variate from the polar method.
	spare    float64
	hasSpare bool
}

// NewRand returns a generator seeded with seed. Two generators with the
// same seed produce identical streams. NewRand and Split inline, so
// *NewRand(seed) or *r.Split() fills a Rand value held inside another
// struct or on the stack without a heap allocation.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives a new, statistically independent generator from r.
// It advances r once, so streams created by successive Splits differ.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// gamma is splitmix64's state increment: draw i is mix(state₀ + i·gamma).
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// BoolCount runs Bool(p) trials while trials + trues < limit and returns
// the number of trues. It consumes exactly the draws of
//
//	if p > 0 {
//		for i := 0; i < limit-trues; i++ {
//			if r.Bool(p) {
//				trues++
//			}
//		}
//	}
//
// so the run's bound shrinks as trues accrue. As with Bool, p >= 1 makes
// every trial true without drawing; p <= 0 or NaN draws nothing.
func (r *Rand) BoolCount(p float64, limit int) int {
	if !(p > 0) || limit <= 0 {
		return 0
	}
	if p >= 1 {
		return limit - limit/2 // ceil(limit/2): every trial is true, so each takes two off the bound
	}
	// Float64() < p is u>>11 < p·2⁵³ for the integer u>>11 < 2⁵³, and the
	// scaling by 2⁵³ is exact, so the test is u>>11 < ceil(p·2⁵³).
	thresh := uint64(math.Ceil(p * (1 << 53)))
	s := r.state
	trues := 0
	left := limit
	// While seven or more are left, the next four trials all happen (the
	// first three take at most six off the bound), so they run without a
	// check.
	for left >= 7 {
		s1 := s + gamma
		s2 := s1 + gamma
		s3 := s2 + gamma
		s = s3 + gamma
		h := below(s1, thresh) + below(s2, thresh) + below(s3, thresh) + below(s, thresh)
		trues += h
		left -= 4 + h
	}
	for left > 0 {
		s += gamma
		h := below(s, thresh)
		trues += h
		left -= 1 + h
	}
	r.state = s
	return trues
}

// below returns 1 when the top 53 bits of the draw at state s are below
// thresh, and 0 otherwise. Both are at most 2⁵³, so their difference
// wraps exactly when it is negative.
func below(s, thresh uint64) int {
	return int((mix(s)>>11 - thresh) >> 63)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *Rand) Norm(mean, std float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + std*r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return mean + std*u*m
	}
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	// Guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// LogNormal returns a log-normally distributed value where mu and sigma are
// the mean and standard deviation of the underlying normal (i.e. the median
// of the result is exp(mu)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Pareto returns a Pareto-distributed value with minimum xm and shape alpha.
// Smaller alpha means a heavier tail.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Choice returns an index in [0, len(weights)) sampled proportionally to
// weights. It panics if weights is empty or sums to a non-positive value.
func (r *Rand) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("stats: Choice with empty or non-positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes xs in place using the Fisher–Yates algorithm.
func Shuffle[T any](r *Rand, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
