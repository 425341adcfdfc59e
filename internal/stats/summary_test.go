package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasics(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(xs); got != 2 {
		t.Errorf("Std = %v, want 2", got)
	}
}

func TestCV(t *testing.T) {
	xs := []float64{10, 10, 10}
	if got := CV(xs); got != 0 {
		t.Errorf("CV of constants = %v, want 0", got)
	}
	if !math.IsNaN(CV([]float64{1, -1})) {
		t.Error("CV with zero mean should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
}

func TestMedianIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := Median(xs); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
	if got := Quantile(xs, 0.75) - Quantile(xs, 0.25); got != 4 {
		t.Errorf("IQR = %v, want 4", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 {
		t.Errorf("Min = %v", Min(xs))
	}
	if !math.IsNaN(Min(nil)) {
		t.Error("Min of empty should be NaN")
	}
}

func TestSummaryMatchesBatch(t *testing.T) {
	r := NewRand(99)
	xs := make([]float64, 5000)
	var s Summary
	for i := range xs {
		xs[i] = r.Norm(5, 2)
		s.Add(xs[i])
	}
	if !almostEq(s.Mean(), Mean(xs), 1e-9) {
		t.Errorf("Summary mean %v != batch %v", s.Mean(), Mean(xs))
	}
	if !almostEq(s.Var(), Variance(xs), 1e-6) {
		t.Errorf("Summary var %v != batch %v", s.Var(), Variance(xs))
	}
	if s.N() != len(xs) {
		t.Error("Summary N mismatch")
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if !math.IsNaN(e.Value()) {
		t.Error("EWMA before update should be NaN")
	}
	e.Update(10)
	if e.Value() != 10 {
		t.Errorf("first update = %v, want 10", e.Value())
	}
	e.Update(20)
	if e.Value() != 15 {
		t.Errorf("second update = %v, want 15", e.Value())
	}
}

// Property: for any non-empty sample, quantiles are monotone in q and
// bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa <= qb && qa >= Min(xs) && qb <= slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Welford summary mean equals batch mean for any finite input.
func TestSummaryMeanProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		var s Summary
		for _, x := range xs {
			s.Add(x)
		}
		scale := math.Max(1, math.Abs(Mean(xs)))
		return almostEq(s.Mean(), Mean(xs), 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestZipfTopShare(t *testing.T) {
	// Calibration check: with ~10k titles and s≈0.9 the top 10% of ranks
	// should hold roughly the paper's 66% of probability mass.
	z := NewZipf(10000, 0.9)
	share := z.TopShare(0.1)
	if share < 0.55 || share > 0.75 {
		t.Errorf("top-10%% share = %v, want ~0.66", share)
	}
}

func TestZipfSampleSkew(t *testing.T) {
	z := NewZipf(1000, 1.0)
	r := NewRand(123)
	counts := make([]int, 1000)
	n := 200000
	for i := 0; i < n; i++ {
		k := z.Sample(r)
		if k < 0 || k >= 1000 {
			t.Fatalf("sample out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("popularity not decreasing: c0=%d c10=%d c500=%d",
			counts[0], counts[10], counts[500])
	}
	// Empirical frequency of rank 0 should be near its analytic probability.
	got := float64(counts[0]) / float64(n)
	if !almostEq(got, z.Prob(0), 0.01) {
		t.Errorf("rank-0 frequency %v vs prob %v", got, z.Prob(0))
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(500, 0.8)
	var sum float64
	for i := 0; i < 500; i++ {
		sum += z.Prob(i)
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Errorf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(500) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	if e.At(0) != 0 {
		t.Errorf("At(0) = %v", e.At(0))
	}
	if e.At(3) != 0.6 {
		t.Errorf("At(3) = %v, want 0.6", e.At(3))
	}
	if e.At(5) != 1 {
		t.Errorf("At(5) = %v, want 1", e.At(5))
	}
	if got := e.CCDFAt(3); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("CCDFAt(3) = %v, want 0.4", got)
	}
	if e.N() != 5 {
		t.Error("N mismatch")
	}
}

// Property: ECDF is monotone non-decreasing in x and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, x1, x2 float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 || math.IsNaN(x1) || math.IsNaN(x2) {
			return true
		}
		e := NewECDF(xs)
		a, b := x1, x2
		if a > b {
			a, b = b, a
		}
		pa, pb := e.At(a), e.At(b)
		return pa <= pb && pa >= 0 && pb <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinnedStats(t *testing.T) {
	xs := []float64{5, 15, 15, 25, 95}
	ys := []float64{1, 2, 4, 8, 16}
	bins := BinnedStats(xs, ys, 0, 100, 10)
	if len(bins) != 10 {
		t.Fatalf("got %d bins, want 10", len(bins))
	}
	if bins[0].N != 1 || bins[0].Mean != 1 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	if bins[1].N != 2 || bins[1].Mean != 3 || bins[1].Median != 3 {
		t.Errorf("bin1 = %+v", bins[1])
	}
	if bins[9].N != 1 || bins[9].Mean != 16 {
		t.Errorf("bin9 = %+v", bins[9])
	}
	if bins[5].N != 0 || !math.IsNaN(bins[5].Mean) {
		t.Errorf("empty bin should be NaN: %+v", bins[5])
	}
	if bins[1].Lo != 10 || bins[1].Hi != 20 {
		t.Errorf("bin1 edges = [%v, %v)", bins[1].Lo, bins[1].Hi)
	}
}

func TestBinnedStatsIgnoresOutOfRange(t *testing.T) {
	bins := BinnedStats([]float64{-5, 200}, []float64{1, 2}, 0, 100, 50)
	for _, b := range bins {
		if b.N != 0 {
			t.Errorf("out-of-range sample landed in bin %+v", b)
		}
	}
}

func TestGroupedMean(t *testing.T) {
	keys := []int{0, 0, 1, 3, 9}
	ys := []float64{2, 4, 6, 8, 10}
	m := GroupedMean(keys, ys, 4)
	if m[0] != 3 || m[1] != 6 || m[3] != 8 {
		t.Errorf("GroupedMean = %v", m)
	}
	if !math.IsNaN(m[2]) {
		t.Error("missing key should be NaN")
	}
	if len(m) != 5 {
		t.Errorf("len = %d, want 5 (key 9 out of range dropped)", len(m))
	}
}

// Property: every bin's median lies within [P25, P75] and N sums to the
// number of in-range samples.
func TestBinnedStatsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := 50 + r.Intn(200)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(0, 100)
			ys[i] = r.Norm(0, 10)
		}
		bins := BinnedStats(xs, ys, 0, 100, 10)
		total := 0
		for _, b := range bins {
			total += b.N
			if b.N > 0 && (b.Median < b.P25 || b.Median > b.P75) {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantileAgainstSort(t *testing.T) {
	r := NewRand(1234)
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	// With 1001 points, quantile q lands exactly on index 1000q.
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 1} {
		want := sorted[int(q*1000)]
		if got := Quantile(xs, q); !almostEq(got, want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
