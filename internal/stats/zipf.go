package stats

import (
	"math"
	"sort"
)

// Zipf samples ranks 0..N-1 with probability proportional to
// 1/(rank+1)^S. It is the popularity model for the video catalog: the
// paper reports that the top 10% of videos receive about 66% of plays,
// which a Zipf exponent near 0.9 reproduces for catalogs of ~10^4 titles.
type Zipf struct {
	cum []float64 // cumulative unnormalized weights, len N
}

// NewZipf builds a sampler over n ranks with exponent s > 0.
// It panics if n <= 0 or s <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("stats: NewZipf requires n > 0 and s > 0")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &Zipf{cum: cum}
}

// Sample draws a rank in [0, N). Rank 0 is the most popular.
func (z *Zipf) Sample(r *Rand) int {
	x := r.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, x)
}

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cum) {
		return 0
	}
	w := z.cum[i]
	if i > 0 {
		w -= z.cum[i-1]
	}
	return w / z.cum[len(z.cum)-1]
}

// TopShare returns the fraction of probability mass held by the most
// popular frac of ranks (e.g. TopShare(0.1) is the share of the top 10%).
func (z *Zipf) TopShare(frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	k := int(frac * float64(len(z.cum)))
	if k <= 0 {
		k = 1
	}
	if k > len(z.cum) {
		k = len(z.cum)
	}
	return z.cum[k-1] / z.cum[len(z.cum)-1]
}
