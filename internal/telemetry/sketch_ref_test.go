package telemetry

import (
	"math"
	"sort"
)

// refSketch is the straightforward compaction QuantileSketch is checked
// against: every level, whatever it holds, is put in order by
// sort.Float64s before its stride-2 promotion, and its zeros are then
// rewritten −0 first, the order sort.Float64s leaves open and the sketch
// fixes. QuantileSketch must match it bit for bit — levels, parity, n,
// min and max — on any input.
type refSketch struct {
	k        int
	n        uint64
	min, max float64
	levels   [][]float64
	parity   uint64
}

func newRefSketch(k int) *refSketch {
	s := NewSketch(k)
	return &refSketch{k: s.k, min: s.min, max: s.max}
}

func (s *refSketch) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if len(s.levels) == 0 {
		s.levels = [][]float64{nil}
	}
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.levels[0] = append(s.levels[0], v)
	s.compactAll()
}

func (s *refSketch) Clone() *refSketch {
	c := *s
	c.levels = nil
	for _, lvl := range s.levels {
		c.levels = append(c.levels, append([]float64(nil), lvl...))
	}
	return &c
}

func (s *refSketch) Merge(o *refSketch) {
	if o.n == 0 {
		return
	}
	for len(s.levels) < len(o.levels) {
		s.levels = append(s.levels, nil)
	}
	for h := range o.levels {
		s.levels[h] = append(s.levels[h], o.levels[h]...)
	}
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.compactAll()
}

// load sets the state a wire value decodes to, for a wire value
// UnmarshalJSON accepted.
func (s *refSketch) load(w sketchWire) {
	*s = *newRefSketch(w.K)
	if w.N == 0 {
		return
	}
	s.n, s.min, s.max = w.N, w.Min, w.Max
	for h, lvl := range w.Levels {
		s.levels = append(s.levels, append([]float64(nil), lvl...))
		if w.Parity[h] {
			s.parity |= 1 << h
		}
	}
	s.compactAll()
}

func (s *refSketch) compactAll() {
	for h := 0; h < len(s.levels); h++ {
		if len(s.levels[h]) >= s.k {
			s.compact(h)
		}
	}
}

func (s *refSketch) compact(h int) {
	if h+1 == len(s.levels) {
		s.levels = append(s.levels, nil)
	}
	buf := s.levels[h]
	sort.Float64s(buf)
	zeros := buf[sort.SearchFloat64s(buf, 0):]
	zeros = zeros[:sort.Search(len(zeros), func(i int) bool { return zeros[i] > 0 })]
	neg := 0
	for _, v := range zeros {
		if math.Signbit(v) {
			neg++
		}
	}
	for i := range zeros {
		zeros[i] = math.Copysign(0, float64(i-neg))
	}
	m := len(buf) &^ 1
	off := int(s.parity >> h & 1)
	s.parity ^= 1 << h
	for i := off; i < m; i += 2 {
		s.levels[h+1] = append(s.levels[h+1], buf[i])
	}
	s.levels[h] = append([]float64(nil), buf[m:]...)
}
