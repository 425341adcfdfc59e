package stats

import "math"

// SortKey maps a float64 to a uint64 whose unsigned order is the float
// order, and total on bit patterns: negative values have every bit
// flipped, the rest only the sign bit. So −0 sorts just before +0, and
// two values share a key only when they share their bits, which makes a
// sorted order unique. NaNs fall outside [−Inf, +Inf]: below it when
// their sign bit is set, above it otherwise.
func SortKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// RadixSort sorts buf into SortKey order with an LSD radix sort on the 8
// key bytes, using tmp (at least as long as buf) as the other half of
// each pass. One pass builds every byte's histogram, and a byte on which
// all keys agree is skipped.
func RadixSort(buf, tmp []float64) {
	if len(buf) < 2 {
		return
	}
	var hist [8][256]int
	for _, v := range buf {
		k := SortKey(v)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	first := SortKey(buf[0])
	src, dst := buf, tmp[:len(buf)]
	for d := range hist {
		shift := uint(8 * d)
		c := &hist[d]
		if c[byte(first>>shift)] == len(buf) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, v := range src {
			b := byte(SortKey(v) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &buf[0] {
		copy(buf, src)
	}
}

// insertionCutoff is the length up to which Sort insertion-sorts. On a
// short slice RadixSort's fixed cost, zeroing and summing 8×256
// counters, dominates: at 32 normal samples an insertion sort takes
// 0.6 µs against 2.7 µs, and the two cross near 100 items.
const insertionCutoff = 32

// Sort sorts xs in place: NaNs first, as sort.Float64s puts them, then
// every other value in float order with −0 before +0. NaNs among
// themselves, like everything else, are in SortKey order, so the result
// depends only on which bit patterns xs holds, never on their order, and
// equals sort.Float64s's up to the order of NaNs and of ±0 ties, which
// sort.Float64s leaves unspecified. Scratch space is one allocation of
// len(xs), and none at all up to insertionCutoff.
func Sort(xs []float64) {
	nans := 0
	for i, v := range xs {
		if v != v {
			xs[i], xs[nans] = xs[nans], v
			nans++
		}
	}
	if len(xs) <= insertionCutoff {
		insertionSort(xs[:nans])
		insertionSort(xs[nans:])
		return
	}
	tmp := make([]float64, len(xs))
	RadixSort(xs[:nans], tmp)
	RadixSort(xs[nans:], tmp)
}

// insertionSort sorts xs into SortKey order.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		k := SortKey(v)
		j := i
		for ; j > 0 && SortKey(xs[j-1]) > k; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
	}
}
