package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"

	"vidperf/internal/stats"
)

// QuantileSketch is a streaming quantile summary in the KLL family with a
// fixed, deterministic compaction schedule: level h holds items of weight
// 2^h, and when a level reaches k items it is put in ascending order and
// every other item is promoted to the level above, starting from an
// offset that alternates between compactions (the deterministic
// counterpart of KLL's coin flip). Level 0 holds raw samples and is
// radix-sorted; a higher level holds sorted runs back to back (stride-2
// promotions from below, a leftover, runs appended by Merge), which are
// merged. Both orders are the total order of stats.SortKey, so the state
// never depends on which sort ran.
// The state after any sequence of Add and Merge calls is a pure function
// of that sequence, which is what lets the sharded runner produce
// byte-identical snapshots at any parallelism (see the package doc's
// determinism rule).
//
// Memory is O(k·log(n/k)). The worst-case normalized rank error of
// Quantile is bounded by ErrorBound (≈ 4/k); with the default k=256 that
// is under 1.6% of rank. NaN inputs are ignored.
type QuantileSketch struct {
	k int
	// first, when non-nil, is the buffer level 0 starts in instead of a
	// fresh one of k samples (see reserve).
	first  []float64
	n      uint64
	min    float64
	max    float64
	sum    float64     // of every sample, added in the order Add and Merge saw them
	levels [][]float64 // levels[h] holds items of weight 1<<h
	// parity bit h is level h's next compaction offset. A uint64 covers
	// every level a sketch can reach: level 64 would need n ≥ k·2⁶⁴.
	parity uint64
}

// DefaultSketchK is the compaction parameter used when callers pass k <= 0.
const DefaultSketchK = 256

// MaxSketchK is the largest compaction parameter a sketch takes. Its rank
// error bound is 0.006%, and one full level holds 512 KiB.
const MaxSketchK = 1 << 16

// NewSketch returns an empty sketch. k is clamped to an even value in
// [8, MaxSketchK]; k <= 0 selects DefaultSketchK.
func NewSketch(k int) *QuantileSketch {
	if k <= 0 {
		k = DefaultSketchK
	}
	k = min(max(k, 8), MaxSketchK)
	k += k & 1
	return &QuantileSketch{k: k, min: math.Inf(1), max: math.Inf(-1)}
}

// firstLevels is how many levels a sketch's level-header slice has
// room for when its first sample arrives: k·2³ samples, about one
// shard's chunks, so early compactions do not regrow the slice.
const firstLevels = 4

// reserve gives an empty sketch the buffers its first sample will use:
// l0, empty with room for the samples its feed is expected to bring (at
// most k), becomes level 0, and hdr, empty with room for firstLevels
// levels, the level-header slice. The caller carves both out of larger
// slabs. It changes no state a snapshot shows: an empty sketch still
// writes no levels and no parity, and more samples grow level 0 as
// append does.
func (s *QuantileSketch) reserve(l0 []float64, hdr [][]float64) {
	if len(s.levels) == 0 {
		s.first, s.levels = l0, hdr
	}
}

// K returns the compaction parameter.
func (s *QuantileSketch) K() int { return s.k }

// N returns how many finite samples have been added (including via Merge).
func (s *QuantileSketch) N() uint64 { return s.n }

// Sum returns the sum of every sample added (including via Merge), 0
// for an empty sketch. It is exact up to float64 rounding in the order
// the samples arrived, not an estimate from the retained items.
func (s *QuantileSketch) Sum() float64 { return s.sum }

// Min returns the smallest sample seen, or NaN for an empty sketch.
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample seen, or NaN for an empty sketch.
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Add folds one sample into the sketch. NaN is ignored.
func (s *QuantileSketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if len(s.levels) == 0 {
		if cap(s.levels) == 0 {
			s.levels = make([][]float64, 0, firstLevels)
		}
		if s.first == nil {
			s.first = make([]float64, 0, s.k)
		}
		s.levels, s.first = append(s.levels, s.first), nil
	}
	s.n++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.levels[0] = append(s.levels[0], v)
	s.compactAll()
}

// Clone returns an independent deep copy of the sketch — identical state
// (including the compaction parity), so the copy continues the stream
// exactly as the original would. Checkpointing and snapshot folding in
// continuous service mode rely on this.
func (s *QuantileSketch) Clone() *QuantileSketch {
	c := &QuantileSketch{
		k:      s.k,
		n:      s.n,
		min:    s.min,
		max:    s.max,
		sum:    s.sum,
		parity: s.parity,
	}
	if s.levels != nil {
		c.levels = make([][]float64, len(s.levels))
		for h, lvl := range s.levels {
			c.levels[h] = append(make([]float64, 0, s.k), lvl...)
		}
	}
	return c
}

// Merge folds o into s. o is not modified. The result depends only on the
// two states and their order, so callers that need reproducible output
// must merge in a canonical order (the telemetry pipeline uses ascending
// PoP ID).
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil || o.n == 0 {
		return
	}
	for len(s.levels) < len(o.levels) {
		s.levels = append(s.levels, make([]float64, 0, s.k))
	}
	for h := range o.levels {
		s.levels[h] = append(s.levels[h], o.levels[h]...)
	}
	s.n += o.n
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.compactAll()
}

// compactAll restores the per-level capacity invariant bottom-up. A
// compaction at level h may overfill h+1; the ascending sweep reaches it
// next, so one pass suffices.
func (s *QuantileSketch) compactAll() {
	for h := 0; h < len(s.levels); h++ {
		if len(s.levels[h]) >= s.k {
			s.compact(h)
		}
	}
}

// compact sorts level h and promotes every other item of its even-length
// prefix to level h+1, alternating the starting offset between calls. An
// odd leftover (the level's maximum) stays behind at full fidelity, so
// compaction error comes only from the pairwise halving.
func (s *QuantileSketch) compact(h int) {
	if h+1 == len(s.levels) {
		s.levels = append(s.levels, make([]float64, 0, s.k))
	}
	buf := s.levels[h]
	var scratch [sortScratch]float64
	tmp := scratch[:]
	if len(buf) > len(tmp) {
		tmp = make([]float64, len(buf))
	}
	if h == 0 {
		stats.RadixSort(buf, tmp[:len(buf)])
	} else {
		mergeRuns(buf, tmp[:len(buf)])
	}
	m := len(buf) &^ 1
	off := int(s.parity >> h & 1)
	s.parity ^= 1 << h
	for i := off; i < m; i += 2 {
		s.levels[h+1] = append(s.levels[h+1], buf[i])
	}
	s.levels[h] = buf[:copy(buf, buf[m:])]
}

// sortScratch is the length of the stack buffer compact sorts through; a
// longer level falls back to a heap buffer. A level of a default-k sketch
// never reaches 4k items, even in Merge, so the fold and the shard merge
// sort without allocating.
const sortScratch = 4 * DefaultSketchK

// mergeRuns sorts buf into key order by merging adjacent ascending runs
// pairwise, bottom up, using tmp (as long as buf) as the other half of
// each pass. It is linear in the few runs a level above 0 holds, and
// O(n log n) on any input, such as an unsorted level UnmarshalJSON read.
func mergeRuns(buf, tmp []float64) {
	if len(buf) < 2 {
		return
	}
	src, dst := buf, tmp
	for runEnd(src, 0) < len(src) {
		for lo := 0; lo < len(src); {
			mid := runEnd(src, lo)
			hi := runEnd(src, mid)
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi])
			lo = hi
		}
		src, dst = dst, src
	}
	if &src[0] != &buf[0] {
		copy(buf, src)
	}
}

// runEnd returns the end of the ascending run of xs that starts at i
// (len(xs) when i is past the end).
func runEnd(xs []float64, i int) int {
	if i >= len(xs) {
		return len(xs)
	}
	prev := stats.SortKey(xs[i])
	for i++; i < len(xs); i++ {
		k := stats.SortKey(xs[i])
		if k < prev {
			break
		}
		prev = k
	}
	return i
}

// mergeInto merges the ascending runs a and b into dst, which holds
// exactly len(a)+len(b) items.
func mergeInto(dst, a, b []float64) {
	i, j := 0, 0
	for o := range dst {
		if j == len(b) || (i < len(a) && stats.SortKey(a[i]) <= stats.SortKey(b[j])) {
			dst[o] = a[i]
			i++
		} else {
			dst[o] = b[j]
			j++
		}
	}
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1), or NaN
// for an empty sketch. It is the one-level case of Quantiles.
func (s *QuantileSketch) Quantile(q float64) float64 {
	var out [1]float64
	s.Quantiles([]float64{q}, out[:])
	return out[0]
}

// Quantiles writes the estimate of the qs[i]-th quantile into out[i] (out
// must be at least as long as qs), each NaN for an empty sketch. It sorts
// the retained items once, whatever the number of levels asked for, so a
// caller reading several quantiles of one sketch should ask for them in
// one call. Every estimate is one of the retained samples; its rank
// differs from the true rank by at most ErrorBound()·N().
func (s *QuantileSketch) Quantiles(qs, out []float64) {
	if s.n == 0 {
		for i := range qs {
			out[i] = math.NaN()
		}
		return
	}
	items := s.sortedItems()
	for i, q := range qs {
		out[i] = weightedQuantile(items, s.n, q)
	}
}

// weighted is a retained item and its weight.
type weighted struct {
	v float64
	w uint64
}

// sortedItems returns the retained items in ascending order under <.
// They are laid out level by level, each level in position order, and
// the sort is stable, so among equal items (±0 is the only pair with
// different bits) the lower level and then the earlier position come
// first. A stable sort's output is unique: it is the order any stable
// sort under < gives, sort.SliceStable's included (refQuantile in the
// tests), down to the bits of every quantile.
func (s *QuantileSketch) sortedItems() []weighted {
	total := 0
	for _, lvl := range s.levels {
		total += len(lvl)
	}
	items := make([]weighted, 0, 2*total)
	for h, lvl := range s.levels {
		w := uint64(1) << uint(h)
		for _, v := range lvl {
			items = append(items, weighted{v, w})
		}
	}
	return mergeWeighted(items, items[total:2*total])
}

// mergeWeighted sorts items stably under < by value and returns the
// sorted slice, which is either items or tmp (as long as items). It
// merges adjacent ascending runs pairwise, bottom up, until one remains:
// a level above 0 is a few runs (see compact), so only level 0, raw
// samples, takes more than a few passes.
func mergeWeighted(items, tmp []weighted) []weighted {
	src, dst := items, tmp
	for weightedRunEnd(src, 0) < len(src) {
		for lo := 0; lo < len(src); {
			mid := weightedRunEnd(src, lo)
			hi := weightedRunEnd(src, mid)
			mergeWeightedInto(dst[lo:hi], src[lo:mid], src[mid:hi])
			lo = hi
		}
		src, dst = dst, src
	}
	return src
}

// weightedRunEnd returns the end of the ascending run of xs that starts
// at i (len(xs) when i is past the end). Equal values continue a run.
func weightedRunEnd(xs []weighted, i int) int {
	if i >= len(xs) {
		return len(xs)
	}
	for i++; i < len(xs); i++ {
		if xs[i].v < xs[i-1].v {
			break
		}
	}
	return i
}

// mergeWeightedInto merges the ascending runs a and b into dst, which
// holds exactly len(a)+len(b) items, taking from a on ties.
func mergeWeightedInto(dst, a, b []weighted) {
	i, j := 0, 0
	for o := range dst {
		if j == len(b) || (i < len(a) && !(b[j].v < a[i].v)) {
			dst[o] = a[i]
			i++
		} else {
			dst[o] = b[j]
			j++
		}
	}
}

// weightedQuantile reads the q-th quantile of a sketch of n samples from
// its sorted items.
func weightedQuantile(items []weighted, n uint64, q float64) float64 {
	if q <= 0 {
		return items[0].v
	}
	if q >= 1 {
		return items[len(items)-1].v
	}
	target := q * float64(n-1)
	var cum float64
	for _, it := range items {
		cum += float64(it.w)
		if cum > target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// ErrorBound returns the documented worst-case normalized rank error of
// Quantile: 4/k. The alternating compaction offset cancels
// consecutive compaction errors at each level, bounding the outstanding
// error per level by that level's item weight; summed over levels that is
// under 2N/k, and the bound doubles it as a safety margin for the parity
// disturbance merges introduce. The parity tests assert the streaming and
// exact analyses agree within this bound on the shared campaign.
func (s *QuantileSketch) ErrorBound() float64 {
	return math.Min(1, 4/float64(s.k))
}

// sketchWire is the JSON encoding of a sketch. Levels and parity encode
// the exact internal state, so decode(encode(s)) continues the stream
// deterministically.
type sketchWire struct {
	K      int         `json:"k"`
	N      uint64      `json:"n"`
	Min    float64     `json:"min"`
	Max    float64     `json:"max"`
	Sum    float64     `json:"sum,omitempty"`
	Parity []bool      `json:"parity,omitempty"`
	Levels [][]float64 `json:"levels,omitempty"`
}

// wire returns the sketch's JSON form, which shares the sketch's levels.
// An empty sketch writes min/max as 0 (JSON has no infinities); fromWire
// restores the sentinels.
func (s *QuantileSketch) wire() sketchWire {
	w := sketchWire{K: s.k, N: s.n, Sum: s.sum, Levels: s.levels}
	if len(s.levels) > 0 {
		w.Parity = make([]bool, len(s.levels))
		for h := range w.Parity {
			w.Parity[h] = s.parity>>h&1 == 1
		}
	}
	if s.n > 0 {
		w.Min, w.Max = s.min, s.max
	}
	return w
}

// MarshalJSON encodes the sketch state.
func (s *QuantileSketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.wire())
}

// fromWire sets s to the state w encodes, taking w's levels. It rejects
// any state NewSketch, Add and Merge cannot reach the shape of: a k
// NewSketch would not return, a sum on an empty sketch, a parity bit per
// level missing, or levels whose weights do not sum to n.
func (s *QuantileSketch) fromWire(w *sketchWire) error {
	if w.K < 8 || w.K > MaxSketchK || w.K%2 == 1 {
		return fmt.Errorf("telemetry: sketch k=%d, want an even value in [8, %d]", w.K, MaxSketchK)
	}
	*s = *NewSketch(w.K)
	if w.N == 0 {
		if w.Sum != 0 {
			return fmt.Errorf("telemetry: empty sketch has sum %g", w.Sum)
		}
		return nil
	}
	if len(w.Levels) != len(w.Parity) {
		return fmt.Errorf("telemetry: sketch has %d levels but %d parity bits",
			len(w.Levels), len(w.Parity))
	}
	if len(w.Levels) > 64 {
		return fmt.Errorf("telemetry: sketch has %d levels, at most 64 fit a uint64 count", len(w.Levels))
	}
	var held uint64
	for h, lvl := range w.Levels {
		over, weight := bits.Mul64(uint64(len(lvl)), 1<<uint(h))
		var carry uint64
		held, carry = bits.Add64(held, weight, 0)
		if over|carry != 0 {
			return fmt.Errorf("telemetry: sketch levels hold weight past 2^64")
		}
	}
	if held != w.N {
		return fmt.Errorf("telemetry: sketch levels hold weight %d, want n=%d", held, w.N)
	}
	s.n = w.N
	s.min, s.max, s.sum = w.Min, w.Max, w.Sum
	s.levels = w.Levels
	for h, odd := range w.Parity {
		if odd {
			s.parity |= 1 << h
		}
	}
	s.compactAll()
	return nil
}

// UnmarshalJSON restores a sketch written by MarshalJSON, with the checks
// of fromWire.
func (s *QuantileSketch) UnmarshalJSON(b []byte) error {
	var w sketchWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	return s.fromWire(&w)
}
