package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) / 10) // 0.0 .. 9.9 uniform
	}
	h.Add(-1)         // under
	h.Add(10)         // over (hi-exclusive)
	h.Add(math.NaN()) // ignored
	if h.N() != 102 {
		t.Fatalf("N = %d", h.N())
	}
	bins, under, over := h.Counts()
	if under != 1 || over != 1 {
		t.Fatalf("under/over = %d/%d", under, over)
	}
	for i, c := range bins {
		if c != 10 {
			t.Fatalf("bin %d count %d, want 10", i, c)
		}
	}
	if med := h.Quantile(0.5); math.Abs(med-5) > 1 {
		t.Errorf("median = %v", med)
	}
	o := NewHistogram(0, 10, 10)
	o.Add(5)
	h.Merge(o)
	if h.N() != 103 {
		t.Errorf("merged N = %d", h.N())
	}
}

func TestHistogramMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	a, b := NewHistogram(0, 10, 10), NewHistogram(0, 20, 10)
	b.Add(1)
	a.Merge(b)
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(0, 1, 20)
	for _, v := range permutation(1000, 9) {
		h.Add(v / 1000)
	}
	b1, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("histogram JSON round-trip not byte-identical")
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
	a := NewAccumulator(32)
	a.ConsumeSession(session(3, 2, "ram"))
	a.ConsumeSession(session(10, 1, "ram"))
	o := NewAccumulator(32)
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
