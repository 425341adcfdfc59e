package stats

import "math"

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN if xs is empty.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (std/mean) of xs, the statistic
// the paper uses to classify latency variability (CV > 1 is "high").
// It returns NaN for an empty slice or zero mean.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return Std(xs) / m
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns NaN if xs is empty.
// xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	Sort(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Min returns the smallest element of xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Summary accumulates streaming moments (Welford's algorithm), so hot
// paths can collect statistics without retaining every sample.
type Summary struct {
	n        int
	mean, m2 float64
}

// Add incorporates x into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of samples added.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean, or NaN before any sample.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Var returns the running population variance, or NaN before any sample.
func (s *Summary) Var() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.m2 / float64(s.n)
}

// Std returns the running population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0, 1]: next = (1-alpha)*prev + alpha*sample. TCP's SRTT uses
// alpha = 1/8 (RFC 6298); rate-based ABR estimators typically use larger
// alphas.
type EWMA struct {
	Alpha float64
	value float64
	init  bool
}

// Update folds sample into the average and returns the new value.
func (e *EWMA) Update(sample float64) float64 {
	if !e.init {
		e.value = sample
		e.init = true
		return e.value
	}
	e.value = (1-e.Alpha)*e.value + e.Alpha*sample
	return e.value
}

// Value returns the current average, or NaN before the first update.
func (e *EWMA) Value() float64 {
	if !e.init {
		return math.NaN()
	}
	return e.value
}

// Initialized reports whether Update has been called at least once.
func (e *EWMA) Initialized() bool { return e.init }
