package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/stats"
)

// permutation returns a deterministic shuffle of 0..n-1, so a value's
// true rank is the value itself.
func permutation(n int, seed uint64) []float64 {
	r := stats.NewRand(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

func TestSketchSmallStreamIsNearExact(t *testing.T) {
	s := NewSketch(256)
	for _, v := range permutation(101, 1) {
		s.Add(v)
	}
	if s.N() != 101 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Min() != 0 || s.Max() != 100 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("q1 = %v", got)
	}
	// Below k no compaction happens, so quantiles are order statistics.
	if got := s.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := s.Quantile(0.9); math.Abs(got-90) > 1 {
		t.Errorf("p90 = %v, want ~90", got)
	}
}

func TestSketchRankErrorWithinBound(t *testing.T) {
	const n = 200000
	s := NewSketch(256)
	for _, v := range permutation(n, 7) {
		s.Add(v)
	}
	bound := s.ErrorBound() * n
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := s.Quantile(q)
		want := q * (n - 1)
		if math.Abs(got-want) > bound {
			t.Errorf("q=%.2f: rank %v off true %v by more than bound %v", q, got, want, bound)
		}
	}
	if got := s.CDFAt(n / 2); math.Abs(got-0.5) > s.ErrorBound() {
		t.Errorf("CDFAt(mid) = %v", got)
	}
}

func TestSketchMergePreservesBound(t *testing.T) {
	const n, parts = 120000, 8
	xs := permutation(n, 11)
	shards := make([]*QuantileSketch, parts)
	for i := range shards {
		shards[i] = NewSketch(256)
	}
	for i, v := range xs {
		shards[i%parts].Add(v)
	}
	merged := NewSketch(256)
	var total uint64
	for _, sh := range shards {
		total += sh.N()
		merged.Merge(sh)
	}
	if merged.N() != uint64(n) || total != uint64(n) {
		t.Fatalf("merged N = %d", merged.N())
	}
	bound := merged.ErrorBound() * n
	for _, q := range []float64{0.05, 0.5, 0.95} {
		got := merged.Quantile(q)
		want := q * (n - 1)
		if math.Abs(got-want) > bound {
			t.Errorf("q=%.2f: rank %v off true %v by more than bound %v", q, got, want, bound)
		}
	}
}

func TestSketchDeterministicState(t *testing.T) {
	build := func() []byte {
		s := NewSketch(64)
		for _, v := range permutation(50000, 3) {
			s.Add(v)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical insertion orders produced different sketch states")
	}
}

func TestSketchJSONRoundTrip(t *testing.T) {
	s := NewSketch(32)
	for _, v := range permutation(10000, 5) {
		s.Add(v)
	}
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileSketch
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("sketch JSON round-trip not byte-identical")
	}
	if back.N() != s.N() || back.Quantile(0.5) != s.Quantile(0.5) {
		t.Fatalf("round-trip changed state: n %d vs %d", back.N(), s.N())
	}
}

func TestSketchRejectsCorruptWire(t *testing.T) {
	// Levels holding less weight than the claimed n must not decode.
	bad := `{"k":32,"n":100,"min":0,"max":1,"parity":[false],"levels":[[0.5]]}`
	var s QuantileSketch
	if err := json.Unmarshal([]byte(bad), &s); err == nil {
		t.Fatal("corrupt sketch decoded without error")
	}
	// More levels than the parity bits can index must not decode either,
	// even when the weights add up.
	parity := strings.Repeat("false,", 64) + "false"
	levels := "[0.5]" + strings.Repeat(",[]", 64)
	deep := `{"k":32,"n":1,"min":0,"max":1,"parity":[` + parity + `],"levels":[` + levels + `]}`
	if err := json.Unmarshal([]byte(deep), &s); err == nil {
		t.Fatal("65-level sketch decoded without error")
	}
	// Weights that wrap past 2^64 to the claimed n must not decode: the
	// 8 items of level 63 weigh 2^66, which wraps to 0.
	wrap := `{"k":8,"n":1,"min":0,"max":1,"parity":[` + strings.Repeat("false,", 63) + `false],"levels":[[0.5]` +
		strings.Repeat(",[]", 62) + `,[1,1,1,1,1,1,1,1]]}`
	if err := json.Unmarshal([]byte(wrap), &s); err == nil {
		t.Fatal("sketch with wrapped level weights decoded without error")
	}
	// No Add or Merge gives an empty sketch a sum.
	if err := json.Unmarshal([]byte(`{"k":8,"n":0,"min":0,"max":0,"sum":2.5}`), &s); err == nil {
		t.Fatal("empty sketch with a sum decoded without error")
	}
}

// TestSketchRejectsKNewSketchNeverReturns: a k out of range once decoded,
// and the first Clone, Merge or Add then panicked in makeslice.
func TestSketchRejectsKNewSketchNeverReturns(t *testing.T) {
	for _, k := range []string{"4611686018427387904", "65538", "0", "-2", "6", "9", "257"} {
		src := `{"k":` + k + `,"n":1,"min":1,"max":1,"parity":[false],"levels":[[1]]}`
		var s QuantileSketch
		if err := json.Unmarshal([]byte(src), &s); err == nil {
			t.Errorf("k=%s decoded without error", k)
		}
	}
	for _, k := range []int{8, 256, MaxSketchK} {
		src := fmt.Sprintf(`{"k":%d,"n":1,"min":1,"max":1,"parity":[false],"levels":[[1]]}`, k)
		var s QuantileSketch
		if err := json.Unmarshal([]byte(src), &s); err != nil {
			t.Errorf("k=%d rejected: %v", k, err)
		}
	}
	if got := NewSketch(math.MaxInt).K(); got != MaxSketchK {
		t.Errorf("NewSketch(MaxInt).K() = %d, want MaxSketchK", got)
	}
}

func TestSketchEmptyAndNaN(t *testing.T) {
	s := NewSketch(0)
	if s.K() != DefaultSketchK {
		t.Fatalf("default k = %d", s.K())
	}
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("empty sketch should answer NaN")
	}
	s.Add(math.NaN())
	if s.N() != 0 {
		t.Error("NaN was counted")
	}
	s.Add(2)
	s.Merge(nil)
	s.Merge(NewSketch(0))
	if s.N() != 1 || s.Quantile(0.5) != 2 {
		t.Errorf("state after nil/empty merges: n=%d", s.N())
	}
}

// TestSketchSum: Sum is the float64 sum of every non-NaN sample in the
// order Add saw them; Merge adds the two sums, and Clone and the wire
// form carry the sum exactly.
func TestSketchSum(t *testing.T) {
	a, b := NewSketch(16), NewSketch(16)
	if a.Sum() != 0 {
		t.Fatalf("empty sketch sum %g", a.Sum())
	}
	var wantA, wantB float64
	for i, v := range permutation(3000, 11) {
		v = v/7 + 0.1 // inexact in binary, so the order of the adds shows
		if i%3 == 0 {
			b.Add(v)
			wantB += v
		} else {
			a.Add(v)
			wantA += v
		}
	}
	a.Add(math.NaN())
	if a.Sum() != wantA || b.Sum() != wantB {
		t.Fatalf("sums %v, %v; want %v, %v", a.Sum(), b.Sum(), wantA, wantB)
	}
	c := a.Clone()
	if c.Sum() != wantA {
		t.Fatalf("clone sum %v, want %v", c.Sum(), wantA)
	}
	a.Merge(b)
	if a.Sum() != wantA+wantB || c.Sum() != wantA {
		t.Fatalf("merged sum %v (want %v), clone sum %v after the merge", a.Sum(), wantA+wantB, c.Sum())
	}
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back QuantileSketch
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sum() != a.Sum() {
		t.Fatalf("wire round trip sum %v, want %v", back.Sum(), a.Sum())
	}
	if empty, _ := json.Marshal(NewSketch(16)); strings.Contains(string(empty), `"sum"`) {
		t.Fatalf("empty sketch writes a sum: %s", empty)
	}
}

func TestCounterDimensions(t *testing.T) {
	session := func(pop, chunks int, level string) (core.SessionRecord, []core.ChunkRecord) {
		cs := make([]core.ChunkRecord, chunks)
		for i := range cs {
			cs[i].CacheLevel = level
		}
		return core.SessionRecord{PoP: pop}, cs
	}
	a := NewAccumulatorWith(Config{SketchK: 32})
	a.ConsumeSession(session(3, 2, "ram"))
	a.ConsumeSession(session(10, 1, "ram"))
	o := NewAccumulatorWith(Config{SketchK: 32})
	o.ConsumeSession(session(3, 5, "disk"))
	a.Merge(o)
	counters := a.snapshot().Counters

	rows := CountersByDim(counters, "chunks", "pop")
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Zero-padding keeps numeric order under the lexicographic sort.
	if rows[0].IntValue() != 3 || rows[0].N != 7 || rows[1].IntValue() != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	if got := CountersByDim(counters, "chunks", "cache"); len(got) != 2 || got[1].Value != "ram" || got[1].N != 3 {
		t.Fatalf("cache rows = %+v", got)
	}
	if got := CountersByDim(counters, "chunks_hit", "pop"); len(got) != 0 {
		t.Fatalf("unexpected rows %+v", got)
	}
}

// TestIntDimKeyMatchesFmt pins IntDimKey byte-equal to the "%05d" format
// its keys have always used, across the sign and width edge cases.
func TestIntDimKeyMatchesFmt(t *testing.T) {
	for _, v := range []int{
		math.MinInt, -math.MaxInt, -100000, -99999, -1234, -42, -1, 0, 1, 42,
		9999, 99999, 100000, 123456789, math.MaxInt,
	} {
		want := "chunks_pop=" + fmt.Sprintf("%05d", v)
		if got := IntDimKey("chunks", "pop", v); got != want {
			t.Errorf("IntDimKey(%d) = %q, want %q", v, got, want)
		}
	}
}

// Value classes a sketch script draws its samples from.
const (
	classSpread    = 1 << iota // log-normal delays
	classDup                   // a handful of small integers, so many ties
	classInf                   // ±Inf
	classSubnormal             // subnormals of either sign
	classNegative              // negated log-normal delays
	classEdge                  // ±0, ±MaxFloat64, ±smallest normal
	numClasses     = 6
	allClasses     = 1<<numClasses - 1
)

// drawValue returns one sample from a class allowed by mask (every class
// when mask allows none). It never returns NaN, which never enters a
// sketch. The edge class holds both zeros, so ties of −0 and +0 reach
// compaction and the quantile read.
func drawValue(r *stats.Rand, mask uint8) float64 {
	if mask&allClasses == 0 {
		mask = allClasses
	}
	for {
		c := uint8(1) << r.Intn(numClasses)
		if mask&c == 0 {
			continue
		}
		switch c {
		case classSpread:
			return r.LogNormal(4, 1.2)
		case classDup:
			return float64(r.Intn(6))
		case classInf:
			return math.Inf(1 - 2*r.Intn(2))
		case classSubnormal:
			bits := r.Uint64()&(1<<52-1) | 1
			if r.Bool(0.5) {
				bits |= 1 << 63
			}
			return math.Float64frombits(bits)
		case classNegative:
			return -r.LogNormal(4, 1.2)
		default:
			return []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022}[r.Intn(6)]
		}
	}
}

// Sketch script operations.
const (
	opAdd    = iota // n samples into the sketch
	opMerge         // shards sketches of up to n samples each, merged in order
	opClone         // continue on a clone, once a change to the original left it intact
	opDecode        // replace the sketch by a decoded one (see runSketchScript)
	numSketchOps
)

type sketchOp struct {
	kind    int
	n       int
	shards  int
	classes uint8
	seed    uint64
}

// sameSketch compares every field of the two states, floats by their bits.
func sameSketch(s *QuantileSketch, r *refSketch) bool {
	if s.k != r.k || s.n != r.n || s.parity != r.parity || len(s.levels) != len(r.levels) ||
		math.Float64bits(s.min) != math.Float64bits(r.min) || math.Float64bits(s.max) != math.Float64bits(r.max) {
		return false
	}
	for h, lvl := range s.levels {
		if len(lvl) != len(r.levels[h]) {
			return false
		}
		for i, v := range lvl {
			if math.Float64bits(v) != math.Float64bits(r.levels[h][i]) {
				return false
			}
		}
	}
	return true
}

// decodeBoth decodes w, which must be valid, into a sketch and loads it
// into a reference sketch.
func decodeBoth(t testing.TB, w sketchWire) (*QuantileSketch, *refSketch) {
	t.Helper()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("encode wire %+v: %v", w, err)
	}
	s, r := &QuantileSketch{}, &refSketch{}
	if err := json.Unmarshal(b, s); err != nil {
		t.Fatalf("valid wire value rejected: %v", err)
	}
	r.load(w)
	return s, r
}

// unsortedWire builds a wire value of op.shards levels of up to op.n
// finite samples each, in draw order, so the levels decode unsorted and
// may hold k or more items.
func unsortedWire(k int, op sketchOp) sketchWire {
	r := stats.NewRand(op.seed)
	mask := op.classes & allClasses &^ classInf
	if mask == 0 {
		mask = allClasses &^ classInf
	}
	w := sketchWire{K: k, Min: math.Inf(1), Max: math.Inf(-1)}
	for h := 0; h < op.shards; h++ {
		lvl := make([]float64, r.Intn(op.n+1))
		for i := range lvl {
			lvl[i] = drawValue(r, mask)
			w.Min, w.Max = math.Min(w.Min, lvl[i]), math.Max(w.Max, lvl[i])
		}
		w.Levels = append(w.Levels, lvl)
		w.Parity = append(w.Parity, r.Bool(0.5))
		w.N += uint64(len(lvl)) << h
	}
	if w.N == 0 {
		w.Min, w.Max = 0, 0
	}
	return w
}

// refQuantile is the quantile read Quantiles is checked against: every
// retained item with its weight, level by level, put in order by
// sort.SliceStable under < on each call.
func refQuantile(s *QuantileSketch, q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	var items []weighted
	for h, lvl := range s.levels {
		for _, v := range lvl {
			items = append(items, weighted{v, 1 << h})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].v < items[j].v })
	if q <= 0 {
		return items[0].v
	}
	if q >= 1 {
		return items[len(items)-1].v
	}
	target := q * float64(s.n-1)
	var cum float64
	for _, it := range items {
		cum += float64(it.w)
		if cum > target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// scriptQuantiles are the levels runSketchScript reads after every step.
var scriptQuantiles = []float64{0, 0.01, 0.5, 0.9, 0.99, 1}

// runSketchScript drives a sketch and the reference sketch of parameter k
// through the same operations and fails at the first one after which
// their states differ, or after which Quantiles differs from refQuantile
// in any bit.
func runSketchScript(t testing.TB, k int, ops []sketchOp) {
	t.Helper()
	s, ref := NewSketch(k), newRefSketch(k)
	got := make([]float64, len(scriptQuantiles))
	check := func(i int, op sketchOp, s *QuantileSketch, ref *refSketch) {
		t.Helper()
		if !sameSketch(s, ref) {
			t.Fatalf("k=%d op %d %+v: state diverged:\n got n=%d parity=%b levels=%v\nwant n=%d parity=%b levels=%v",
				k, i, op, s.n, s.parity, s.levels, ref.n, ref.parity, ref.levels)
		}
		s.Quantiles(scriptQuantiles, got)
		for j, q := range scriptQuantiles {
			if want := refQuantile(s, q); math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("k=%d op %d %+v: Quantiles q=%g = %v, reference %v (levels %v)",
					k, i, op, q, got[j], want, s.levels)
			}
		}
	}
	for i, op := range ops {
		r := stats.NewRand(op.seed)
		switch op.kind {
		case opAdd:
			for j := 0; j < op.n; j++ {
				v := drawValue(r, op.classes)
				s.Add(v)
				ref.Add(v)
			}
		case opMerge:
			for j := 0; j < op.shards; j++ {
				ps, pr := NewSketch(k), newRefSketch(k)
				for m := r.Intn(op.n + 1); m > 0; m-- {
					v := drawValue(r, op.classes)
					ps.Add(v)
					pr.Add(v)
				}
				s.Merge(ps)
				ref.Merge(pr)
			}
		case opClone:
			cs, cr := s.Clone(), ref.Clone()
			v := drawValue(r, op.classes)
			s.Add(v)
			ref.Add(v)
			check(i, op, cs, cr)
			s, ref = cs, cr
		case opDecode:
			// shards == 0 round-trips the current state; otherwise the
			// state is replaced by unsorted levels (see unsortedWire).
			var w sketchWire
			if op.shards == 0 {
				b, err := json.Marshal(s)
				if err != nil {
					continue // ±Inf has no JSON form
				}
				if err := json.Unmarshal(b, &w); err != nil {
					t.Fatal(err)
				}
			} else {
				w = unsortedWire(k, op)
			}
			s, ref = decodeBoth(t, w)
		}
		check(i, op, s, ref)
	}
}

type sketchScript struct {
	k   int
	ops []sketchOp
}

// sketchScripts are scripts that between them cover what the two sorts
// must get right: ties, ±Inf, subnormals, a small, an odd-half and the
// default k, 40-way merges whose leftovers stack up into many-run
// levels, and decoded levels out of order and over capacity.
func sketchScripts() []sketchScript {
	var scripts []sketchScript
	for _, k := range []int{8, 10, 256} {
		for _, classes := range []uint8{classDup, classInf | classSpread, classSubnormal | classNegative | classEdge, allClasses} {
			seed := uint64(k)<<8 | uint64(classes)
			scripts = append(scripts, sketchScript{k, []sketchOp{
				{kind: opAdd, n: 20 * k, classes: classes, seed: seed},
				{kind: opMerge, n: 3 * k, shards: 40, classes: classes, seed: seed + 1},
				{kind: opClone, classes: classes, seed: seed + 2},
				{kind: opMerge, n: k / 2, shards: 40, classes: classes, seed: seed + 3},
				{kind: opDecode, n: 3 * k, shards: 5, classes: classes, seed: seed + 4},
				{kind: opAdd, n: 5 * k, classes: classes, seed: seed + 5},
				{kind: opDecode, classes: classes, seed: seed + 6},
				{kind: opMerge, n: 10 * k, shards: 40, classes: classes, seed: seed + 7},
			}})
		}
	}
	return scripts
}

// TestSketchMatchesReference drives the sketch and the sort.Float64s
// reference through fixed and seeded random scripts and requires
// bit-identical states after every operation.
func TestSketchMatchesReference(t *testing.T) {
	for _, sc := range sketchScripts() {
		runSketchScript(t, sc.k, sc.ops)
	}
	r := stats.NewRand(2016)
	for i := 0; i < 100; i++ {
		k := []int{8, 10, 12, 64, 256}[r.Intn(5)]
		ops := make([]sketchOp, r.Intn(12)+1)
		for j := range ops {
			ops[j] = sketchOp{kind: r.Intn(numSketchOps), n: r.Intn(2 * k), shards: r.Intn(41),
				classes: uint8(r.Intn(allClasses + 1)), seed: r.Uint64()}
		}
		runSketchScript(t, k, ops)
	}
}

// FuzzSketchMatchesReference decodes k and a short script from the input
// and checks the sketch against the reference, as
// TestSketchMatchesReference does for its scripts.
func FuzzSketchMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x20\x00\x3f\x01\x01\x02\x00\x28\x3f\x02\x02\x00\x00\x00\x00\x03\x03\x00\x30\x05\x3f\x04"))
	f.Add([]byte("\x02\x01\x00\x10\x00\x02\x05\x03\x00\x08\x06\x01\x07\x00\x00\x01\x09\x00\xff\x00\x04\x0b"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		k := 8 + 2*(int(in.byte())%125) // even, 8..256
		var ops []sketchOp
		for len(in) > 0 && len(ops) < 16 {
			ops = append(ops, sketchOp{
				kind:    int(in.byte()) % numSketchOps,
				n:       in.u16() % (4 * k),
				shards:  int(in.byte()) % 41,
				classes: in.byte(),
				seed:    uint64(in.byte()),
			})
		}
		runSketchScript(t, k, ops)
	})
}

// fuzzReader hands out the fuzz input a little at a time; past its end
// every read is zero.
type fuzzReader []byte

func (f *fuzzReader) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzReader) u16() int { return int(f.byte())<<8 | int(f.byte()) }

// TestSortKeyPutsNegativeZeroFirst pins the order both sorts share on the
// one pair of distinct values that compare equal: −0 before +0.
func TestSortKeyPutsNegativeZeroFirst(t *testing.T) {
	negZero := math.Copysign(0, -1)
	want := []float64{math.Inf(-1), -1, -5e-324, negZero, negZero, 0, 0, 5e-324, 1, math.Inf(1)}
	for name, sort := range map[string]func(buf, tmp []float64){"RadixSort": stats.RadixSort, "mergeRuns": mergeRuns} {
		// Two ascending runs under float order, each with ±0 ties in
		// the wrong key order.
		buf := []float64{-5e-324, 0, negZero, 1, math.Inf(1), math.Inf(-1), -1, 0, negZero, 5e-324}
		sort(buf, make([]float64, len(buf)))
		for i, v := range buf {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%s: got %v, want %v", name, buf, want)
			}
		}
	}
}
