package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first values")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64UniformMean(t *testing.T) {
	r := NewRand(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Float64())
	}
	if math.Abs(s.Mean()-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", s.Mean())
	}
	if math.Abs(s.Std()-math.Sqrt(1.0/12)) > 0.005 {
		t.Errorf("uniform std = %v, want ~%v", s.Std(), math.Sqrt(1.0/12))
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit %d distinct values, want 7", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRand(9)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Norm(10, 3))
	}
	if math.Abs(s.Mean()-10) > 0.05 {
		t.Errorf("normal mean = %v, want ~10", s.Mean())
	}
	if math.Abs(s.Std()-3) > 0.05 {
		t.Errorf("normal std = %v, want ~3", s.Std())
	}
}

func TestExpMoments(t *testing.T) {
	r := NewRand(13)
	var s Summary
	for i := 0; i < 200000; i++ {
		v := r.Exp(50)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		s.Add(v)
	}
	if math.Abs(s.Mean()-50) > 1 {
		t.Errorf("exp mean = %v, want ~50", s.Mean())
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(17)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.LogNormal(math.Log(20), 0.5)
	}
	med := Median(xs)
	if math.Abs(med-20) > 0.5 {
		t.Errorf("lognormal median = %v, want ~20", med)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRand(19)
	n, above := 200000, 0
	for i := 0; i < n; i++ {
		v := r.Pareto(1, 2)
		if v < 1 {
			t.Fatalf("Pareto below xm: %v", v)
		}
		if v > 10 {
			above++
		}
	}
	// P(X > 10) = (1/10)^2 = 0.01 for alpha=2, xm=1.
	got := float64(above) / float64(n)
	if math.Abs(got-0.01) > 0.003 {
		t.Errorf("Pareto tail mass = %v, want ~0.01", got)
	}
}

func TestBool(t *testing.T) {
	r := NewRand(23)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / 100000
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", got)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestChoiceWeights(t *testing.T) {
	r := NewRand(29)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Choice(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Choice weight %d: got %v want ~%v", i, got, want)
		}
	}
}

// SplitMix64 must be the reference splitmix64: from state 0 the generator
// emits 0xe220a8397b1dcdaf then 0x6e789e6aa1b965f4, and SplitMix64(z) is
// the draw after state z. The CDN, the cache index, proxy cohorts, cell
// seeds and serve window seeds all hash through it, so a change here
// regenerates every trace.
func TestSplitMix64(t *testing.T) {
	cases := []struct{ z, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
	}
	for _, c := range cases {
		if got := SplitMix64(c.z); got != c.want {
			t.Errorf("SplitMix64(%#x) = %#x, want %#x", c.z, got, c.want)
		}
	}
	r := NewRand(0)
	for _, c := range cases {
		if got := r.Uint64(); got != c.want {
			t.Errorf("NewRand(0) draw = %#x, want %#x", got, c.want)
		}
	}
}

// Property: Float64 always lands in [0,1) regardless of seed.
func TestFloat64RangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Uniform(lo,hi) stays within its bounds for any ordered pair.
func TestUniformBoundsProperty(t *testing.T) {
	f := func(seed uint64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi == lo || math.IsInf(hi-lo, 0) {
			return true
		}
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Uniform(lo, hi)
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// boolLoop is the loop BoolCount replaces, written with Bool.
func boolLoop(r *Rand, p float64, limit int) int {
	trues := 0
	if p > 0 {
		for i := 0; i < limit-trues; i++ {
			if r.Bool(p) {
				trues++
			}
		}
	}
	return trues
}

// stateBefore returns the state whose next Uint64 is u, inverting the
// splitmix64 finalizer step by step.
func stateBefore(u uint64) uint64 {
	unshift := func(y uint64, s uint) uint64 {
		x := y
		for i := 0; i < 64; i += int(s) {
			x = y ^ x>>s
		}
		return x
	}
	inverse := func(c uint64) uint64 {
		inv := c // Newton's iteration for c⁻¹ mod 2⁶⁴ (c odd)
		for i := 0; i < 5; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z := unshift(u, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	z = unshift(z, 30)
	return z - gamma
}

// TestBoolCountMatchesBoolLoop checks BoolCount against a loop of Bool
// calls: the same count and the same draws consumed. The thresholds sit
// on the 2⁻⁵³ grid Float64 lives on and at their neighbours either side,
// and each run's first draw is placed just below, on and just above the
// threshold, where ceil(p·2⁵³) must round exactly as Float64() < p does.
func TestBoolCountMatchesBoolLoop(t *testing.T) {
	const ulp = 1.0 / (1 << 53)
	ps := []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(-1), math.Inf(1),
		5e-324, 1e-300, 1e-4, 0.01, 0.3, 0.5, 0.9, 1, 1 + ulp, 2}
	for _, k := range []float64{1, 2, 3, 1000, 1 << 20, 1<<52 - 1, 1 << 52, 1<<52 + 1, 1<<53 - 2, 1<<53 - 1} {
		p := k * ulp
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	if u := stateBefore(12345); NewRand(u).Uint64() != 12345 {
		t.Fatal("stateBefore does not invert Uint64")
	}
	seeds := NewRand(99)
	for _, p := range ps {
		// First draws around x = p·2⁵³, the integer u>>11 is compared with.
		var firsts []uint64
		if x := p * (1 << 53); x >= 0 && x < 1<<53 {
			for d := -2.0; d <= 2; d++ {
				if f := math.Floor(x) + d; f >= 0 && f < 1<<53 {
					firsts = append(firsts, uint64(f))
				}
			}
		}
		for trial := 0; trial < 30; trial++ {
			state := seeds.Uint64()
			if trial < len(firsts) {
				state = stateBefore(firsts[trial]<<11 | seeds.Uint64()>>53)
			}
			for _, limit := range []int{-3, 0, 1, 2, 3, 7, 8, 9, 64, 300} {
				a, b := NewRand(state), NewRand(state)
				got, want := a.BoolCount(p, limit), boolLoop(b, p, limit)
				if got != want {
					t.Fatalf("BoolCount(%v, %d) from state %#x = %d, Bool loop %d", p, limit, state, got, want)
				}
				if a.Uint64() != b.Uint64() {
					t.Fatalf("BoolCount(%v, %d) from state %#x consumed a different number of draws", p, limit, state)
				}
			}
		}
	}
}
