package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a fixed-bin histogram over [lo, hi) with underflow and
// overflow buckets. Unlike the quantile sketch it is exact for counting
// queries at bin granularity, and two histograms with the same shape merge
// by adding counts, so the result is independent of merge order.
type Histogram struct {
	lo, hi float64
	counts []uint64
	under  uint64
	over   uint64
	n      uint64
	sum    float64
}

// NewHistogram returns an empty histogram with the given range and bin
// count (bins is clamped to >= 1; hi must exceed lo or NewHistogram
// panics — the shapes are compile-time constants in this codebase).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	h := histogramOver(lo, hi, make([]uint64, max(bins, 1)))
	return &h
}

// histogramOver returns an empty histogram over [lo, hi) that counts
// into bins, which must be zeroed and non-empty; an accumulator carves
// its histograms' bins out of one slice.
func histogramOver(lo, hi float64, bins []uint64) Histogram {
	if hi <= lo {
		panic(fmt.Sprintf("telemetry: NewHistogram(%g, %g): empty range", lo, hi))
	}
	return Histogram{lo: lo, hi: hi, counts: bins}
}

// Add folds one sample into the histogram. NaN is ignored.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.n++
	h.sum += v
	switch {
	case v < h.lo:
		h.under++
	case v >= h.hi:
		h.over++
	default:
		b := int(float64(len(h.counts)) * (v - h.lo) / (h.hi - h.lo))
		if b >= len(h.counts) { // float edge case at the hi boundary
			b = len(h.counts) - 1
		}
		h.counts[b]++
	}
}

// Clone returns an independent deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// Merge adds o's counts into h. The two histograms must have the same
// range and bin count; Merge panics otherwise (mixed shapes are a
// programming error, not a data condition).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if o.lo != h.lo || o.hi != h.hi || len(o.counts) != len(h.counts) {
		panic(fmt.Sprintf("telemetry: merging histogram [%g,%g)/%d into [%g,%g)/%d",
			o.lo, o.hi, len(o.counts), h.lo, h.hi, len(h.counts)))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.n += o.n
	h.sum += o.sum
}

// N returns the number of samples added.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the running mean, or NaN for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// Bounds returns the histogram range and bin count.
func (h *Histogram) Bounds() (lo, hi float64, bins int) { return h.lo, h.hi, len(h.counts) }

// Counts returns the per-bin counts plus the underflow and overflow
// buckets. The slice is the histogram's own storage; treat it as
// read-only.
func (h *Histogram) Counts() (bins []uint64, under, over uint64) {
	return h.counts, h.under, h.over
}

// Quantile returns the q-th quantile estimated by linear interpolation
// within the containing bin. Underflow clamps to lo and overflow to hi;
// an empty histogram returns NaN. Resolution is one bin width, so prefer
// QuantileSketch when the tail matters.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.counts))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if target <= next {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.hi
}

// histWire is the JSON encoding of a histogram.
type histWire struct {
	Lo     float64  `json:"lo"`
	Hi     float64  `json:"hi"`
	Counts []uint64 `json:"counts"`
	Under  uint64   `json:"under,omitempty"`
	Over   uint64   `json:"over,omitempty"`
	N      uint64   `json:"n"`
	Sum    float64  `json:"sum"`
}

// wire returns the histogram's JSON form, which shares its counts.
func (h *Histogram) wire() histWire {
	return histWire{
		Lo: h.lo, Hi: h.hi, Counts: h.counts,
		Under: h.under, Over: h.over, N: h.n, Sum: h.sum,
	}
}

// MarshalJSON encodes the full histogram state.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.wire())
}

// fromWire sets h to the state w encodes, taking w's counts. It rejects
// an empty range or bin list, and counts that do not sum to n (a sum
// past 2^64 included).
func (h *Histogram) fromWire(w *histWire) error {
	if w.Hi <= w.Lo || len(w.Counts) == 0 {
		return fmt.Errorf("telemetry: bad histogram shape [%g,%g)/%d", w.Lo, w.Hi, len(w.Counts))
	}
	held, carry := bits.Add64(w.Under, w.Over, 0)
	for i := 0; carry == 0 && i < len(w.Counts); i++ {
		held, carry = bits.Add64(held, w.Counts[i], 0)
	}
	if carry != 0 {
		return fmt.Errorf("telemetry: histogram counts sum past 2^64")
	}
	if held != w.N {
		return fmt.Errorf("telemetry: histogram counts sum to %d, want n=%d", held, w.N)
	}
	*h = Histogram{lo: w.Lo, hi: w.Hi, counts: w.Counts,
		under: w.Under, over: w.Over, n: w.N, sum: w.Sum}
	return nil
}

// UnmarshalJSON restores a histogram written by MarshalJSON, with the
// checks of fromWire.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	return h.fromWire(&w)
}
