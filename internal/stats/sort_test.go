package stats

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// refSort is the key-order oracle for Sort: NaNs first, and everything
// (NaNs among themselves too) in SortKey order, through a comparison sort.
func refSort(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.SortFunc(out, func(a, b float64) int {
		if an, bn := math.IsNaN(a), math.IsNaN(b); an != bn {
			if an {
				return -1
			}
			return 1
		}
		return cmp.Compare(SortKey(a), SortKey(b))
	})
	return out
}

// checkSort sorts a copy of xs with Sort and compares it with
// sort.Float64s (same NaN count, NaNs first, == on the rest) and, bit for
// bit, with refSort.
func checkSort(t *testing.T, xs []float64) {
	t.Helper()
	got := slices.Clone(xs)
	Sort(got)
	std := slices.Clone(xs)
	sort.Float64s(std)
	if len(got) != len(std) {
		t.Fatalf("length %d, sort.Float64s %d", len(got), len(std))
	}
	nans := 0
	for nans < len(std) && math.IsNaN(std[nans]) {
		nans++
	}
	for i, v := range got {
		if math.IsNaN(v) != (i < nans) {
			t.Fatalf("NaN placement differs at %d of %d (sort.Float64s has %d NaNs first): %v", i, len(got), nans, got)
		}
		if i >= nans && v != std[i] {
			t.Fatalf("item %d = %v, sort.Float64s has %v", i, v, std[i])
		}
	}
	want := refSort(xs)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("item %d bits %#x, key-order oracle %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestSortMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{
		negZero, 0, math.Inf(1), math.Inf(-1), 5e-324, -5e-324,
		math.SmallestNonzeroFloat64 * 3, -2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0xfff0000000000abc),
	}
	r := NewRand(18)
	gens := map[string]func(i int) float64{
		"normal":     func(int) float64 { return r.Norm(50, 30) },
		"duplicates": func(int) float64 { return float64(r.Intn(5)) - 2 },
		"specials":   func(int) float64 { return specials[r.Intn(len(specials))] },
		"integers":   func(int) float64 { return float64(r.Intn(1000)) },
		"constant":   func(int) float64 { return 2.5 },
		"descending": func(i int) float64 { return -float64(i) / 7 },
		"mixed": func(int) float64 {
			if r.Bool(0.2) {
				return specials[r.Intn(len(specials))]
			}
			return r.Norm(0, 1e-300)
		},
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 100, 1000, 5000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i)
			}
			t.Run(name, func(t *testing.T) { checkSort(t, xs) })
		}
	}
	t.Run("negative zero first", func(t *testing.T) {
		for _, n := range []int{4, 4 * insertionCutoff} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = []float64{0, negZero}[i%2]
			}
			Sort(xs)
			for i, v := range xs {
				if math.Signbit(v) != (i < n/2) {
					t.Fatalf("n=%d: item %d is %v, want every −0 before every +0", n, i, v)
				}
			}
		}
	})
}

func FuzzSortMatchesReference(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(3, 1, 2))
	f.Add(enc(math.NaN(), 0, math.Copysign(0, -1), math.Inf(-1), 5e-324, math.Inf(1), 1, 1))
	long := make([]float64, 3*insertionCutoff)
	for i := range long {
		long[i] = float64(i%7) - 3.5
	}
	f.Add(enc(long...))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, len(b)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		checkSort(t, xs)
	})
}
