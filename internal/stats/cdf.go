package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from samples.
// The zero value is empty; build one with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts xs into an ECDF.
func NewECDF(xs []float64) *ECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	Sort(sorted)
	return &ECDF{sorted: sorted}
}

// N returns the number of samples.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x), or NaN for an empty ECDF.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Count of samples <= x.
	n := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(e.sorted))
}

// CCDFAt returns P(X > x) = 1 - At(x).
func (e *ECDF) CCDFAt(x float64) float64 { return 1 - e.At(x) }

// Quantile returns the q-th quantile of the samples.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(e.sorted, q)
}

// Point is a single (x, y) pair in a rendered series.
type Point struct {
	X, Y float64
}

// BinStat summarizes the samples whose key fell into one bin of a binned
// scatter plot (the paper's Figures 4, 7, 12, 14, 15 and 19 are all of
// this form: x-axis bins, y-axis mean/median with IQR error bars).
type BinStat struct {
	Lo, Hi float64 // bin edges, [Lo, Hi)
	N      int
	Mean   float64
	Median float64
	P25    float64
	P75    float64
}

// BinnedStats buckets (x, y) samples into fixed-width bins of x spanning
// [lo, hi) and returns per-bin summaries of y. Bins with no samples are
// returned with N == 0 and NaN statistics so the caller can still render
// a uniform axis.
func BinnedStats(xs, ys []float64, lo, hi, width float64) []BinStat {
	if len(xs) != len(ys) {
		panic("stats: BinnedStats length mismatch")
	}
	if width <= 0 || hi <= lo {
		panic("stats: BinnedStats invalid bins")
	}
	nbins := int(math.Ceil((hi - lo) / width))
	buckets := make([][]float64, nbins)
	for i, x := range xs {
		if x < lo || x >= hi {
			continue
		}
		b := int((x - lo) / width)
		if b >= nbins { // float edge case at hi boundary
			b = nbins - 1
		}
		buckets[b] = append(buckets[b], ys[i])
	}
	out := make([]BinStat, nbins)
	for b := range buckets {
		bs := BinStat{Lo: lo + float64(b)*width, Hi: lo + float64(b+1)*width}
		vals := buckets[b]
		bs.N = len(vals)
		if len(vals) == 0 {
			bs.Mean, bs.Median, bs.P25, bs.P75 = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		} else {
			Sort(vals)
			bs.Mean = Mean(vals)
			bs.Median = quantileSorted(vals, 0.5)
			bs.P25 = quantileSorted(vals, 0.25)
			bs.P75 = quantileSorted(vals, 0.75)
		}
		out[b] = bs
	}
	return out
}

// GroupedMean returns the mean of ys grouped by integer key (e.g. chunk ID),
// for keys 0..maxKey inclusive. Missing keys yield NaN.
func GroupedMean(keys []int, ys []float64, maxKey int) []float64 {
	if len(keys) != len(ys) {
		panic("stats: GroupedMean length mismatch")
	}
	sums := make([]float64, maxKey+1)
	counts := make([]int, maxKey+1)
	for i, k := range keys {
		if k < 0 || k > maxKey {
			continue
		}
		sums[k] += ys[i]
		counts[k]++
	}
	out := make([]float64, maxKey+1)
	for k := range out {
		if counts[k] == 0 {
			out[k] = math.NaN()
		} else {
			out[k] = sums[k] / float64(counts[k])
		}
	}
	return out
}
