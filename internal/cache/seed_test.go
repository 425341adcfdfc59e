package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// sliceSeed is a Seed over an explicit entry list. Positions are sparse
// (3i+1) so the LRU cannot assume they are dense.
type sliceSeed struct {
	keys  []uint64
	sizes []int64
	at    map[uint64]int
}

func newSliceSeed(keys []uint64, sizes []int64) *sliceSeed {
	s := &sliceSeed{keys: keys, sizes: sizes, at: make(map[uint64]int, len(keys))}
	for i, k := range keys {
		s.at[k] = i
	}
	return s
}

func slicePos(i int) uint64 { return uint64(3*i + 1) }

// Fit is the brute-force newest-first sum the Seed contract describes.
func (s *sliceSeed) Fit(capacity int64) (uint64, int, int64) {
	rem, n := capacity, 0
	for i := len(s.keys) - 1; i >= 0; i-- {
		size := s.sizes[i]
		if size <= 0 || size > capacity {
			continue
		}
		if size > rem {
			return slicePos(i) + 1, n, capacity - rem
		}
		rem -= size
		n++
	}
	return 0, n, capacity - rem
}

func (s *sliceSeed) Find(key uint64) (uint64, int64, bool) {
	i, ok := s.at[key]
	if !ok {
		return 0, 0, false
	}
	return slicePos(i), s.sizes[i], true
}

func (s *sliceSeed) Next(pos uint64) (uint64, uint64, int64, bool) {
	i := 0
	if pos > 1 {
		i = int((pos + 1) / 3) // first i with 3i+1 >= pos
	}
	if i >= len(s.keys) {
		return 0, 0, 0, false
	}
	return slicePos(i), s.keys[i], s.sizes[i], true
}

// residents lists an LRU's keys from most to least recent: the arena,
// then the seeded segment newest first.
func residents(c *LRU) []uint64 {
	var out []uint64
	for n := c.head; n != lruNil; n = c.next[n] {
		out = append(out, c.keys[n])
	}
	if c.seed == nil {
		return out
	}
	var seg []uint64
	for pos := c.seedCursor; ; {
		at, key, size, ok := c.seed.Next(pos)
		if !ok {
			break
		}
		pos = at + 1
		if size <= 0 || size > c.seedCap {
			continue
		}
		if _, promoted := c.index.get(c.keys, key); promoted {
			continue
		}
		if _, gone := c.seedGone[key]; gone {
			continue
		}
		seg = append(seg, key)
	}
	slices.Reverse(seg)
	return append(out, seg...)
}

// checkSame fails unless the two caches agree on every observable.
func checkSame(t *testing.T, step string, eager, seeded *LRU) {
	t.Helper()
	if eager.Len() != seeded.Len() || eager.Size() != seeded.Size() || eager.Capacity() != seeded.Capacity() {
		t.Fatalf("%s: eager len=%d size=%d cap=%d, seeded len=%d size=%d cap=%d", step,
			eager.Len(), eager.Size(), eager.Capacity(), seeded.Len(), seeded.Size(), seeded.Capacity())
	}
	er, sr := residents(eager), residents(seeded)
	if !slices.Equal(er, sr) {
		t.Fatalf("%s: resident sets differ\n eager:  %v\n seeded: %v", step, er, sr)
	}
	if len(sr) != seeded.Len() {
		t.Fatalf("%s: %d residents listed, Len() = %d", step, len(sr), seeded.Len())
	}
}

// randomSeed builds n distinct keys with sizes mostly in [1, 100], plus
// zero-size entries and entries larger than any test capacity.
func randomSeed(r *rand.Rand, n int) *sliceSeed {
	keys := make([]uint64, n)
	sizes := make([]int64, n)
	for i, k := range r.Perm(4 * n)[:n] {
		keys[i] = uint64(k)
		switch r.Intn(20) {
		case 0:
			sizes[i] = 0
		case 1:
			sizes[i] = 1 << 20
		default:
			sizes[i] = 1 + r.Int63n(100)
		}
	}
	return newSliceSeed(keys, sizes)
}

// TestSeededLRUMatchesEagerFill drives a seeded LRU and an LRU filled by
// Put-ing every seed entry in order through the same random operation
// sequences, and requires identical hits, sizes and resident sets (in
// recency order) after every operation. Capacities range from a few
// entries to more than the whole seed.
func TestSeededLRUMatchesEagerFill(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		seed := randomSeed(r, 5+r.Intn(60))
		capacity := 1 + r.Int63n(4000)
		eager, seeded := NewLRU(capacity), NewLRU(capacity)
		for i, k := range seed.keys {
			eager.Put(k, seed.sizes[i])
		}
		seeded.SetSeed(seed)
		checkSame(t, "seed", eager, seeded)

		keySpace := 4 * len(seed.keys)
		for op := 0; op < 200; op++ {
			key := uint64(r.Intn(keySpace))
			var step string
			switch r.Intn(10) {
			case 0, 1, 2:
				step = "Get"
				if eager.Get(key) != seeded.Get(key) {
					t.Fatalf("trial %d op %d: Get(%d) disagrees", trial, op, key)
				}
			case 3, 4:
				step = "Put"
				size := 1 + r.Int63n(150)
				if r.Intn(10) == 0 {
					size = capacity + 1
				}
				eager.Put(key, size)
				seeded.Put(key, size)
			case 5, 6:
				step = "Contains"
				if eager.Contains(key) != seeded.Contains(key) {
					t.Fatalf("trial %d op %d: Contains(%d) disagrees", trial, op, key)
				}
			case 7, 8:
				step = "Remove"
				eager.Remove(key)
				seeded.Remove(key)
			case 9:
				step = "Resize"
				c := 1 + r.Int63n(2*capacity)
				eager.Resize(c)
				seeded.Resize(c)
			}
			checkSame(t, step, eager, seeded)
		}
		// Shrink one byte-step at a time down to nothing: each step evicts
		// in recency order, so any ordering difference shows.
		for c := eager.Size(); c >= 1; c -= 1 + c/16 {
			eager.Resize(c)
			seeded.Resize(c)
			checkSame(t, "shrink", eager, seeded)
		}
	}
}

// TestSeededLRUPromotionAndRemoval pins the segment rules on a small
// hand-built seed: a touched entry moves to the front with its bytes, a
// removed entry never comes back, and the seed is dropped once drained.
func TestSeededLRUPromotionAndRemoval(t *testing.T) {
	seed := newSliceSeed([]uint64{10, 11, 12, 13}, []int64{100, 100, 100, 100})
	c := NewLRU(300) // fits 11, 12, 13
	c.SetSeed(seed)
	if c.Len() != 3 || c.Size() != 300 || c.Contains(10) {
		t.Fatalf("seeded: len=%d size=%d contains(10)=%v", c.Len(), c.Size(), c.Contains(10))
	}
	if !c.Get(11) || c.Size() != 300 || c.index.n != 1 {
		t.Fatalf("promotion: size=%d arena=%d", c.Size(), c.index.n)
	}
	c.Remove(12)
	if c.Contains(12) || c.Len() != 2 || c.Size() != 200 {
		t.Fatalf("remove: len=%d size=%d", c.Len(), c.Size())
	}
	c.Remove(11) // promoted, then removed: the seed must not resurrect it
	if c.Contains(11) || c.Len() != 1 {
		t.Fatalf("remove promoted: contains=%v len=%d", c.Contains(11), c.Len())
	}
	c.Put(20, 250) // evicts 13, the last seed entry
	if c.seed != nil || c.Contains(13) || c.Len() != 1 || c.Size() != 250 {
		t.Fatalf("drain: seed=%v len=%d size=%d", c.seed != nil, c.Len(), c.Size())
	}
}

func TestSetSeedRequiresEmptyLRU(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("SetSeed on a non-empty LRU did not panic")
		}
	}()
	c.SetSeed(newSliceSeed([]uint64{2}, []int64{10}))
}

// TestSeededLRUEmptyFit: a seed none of whose entries fit leaves the
// cache empty and unseeded.
func TestSeededLRUEmptyFit(t *testing.T) {
	c := NewLRU(10)
	c.SetSeed(newSliceSeed([]uint64{1, 2}, []int64{0, 11}))
	if c.Len() != 0 || c.Size() != 0 || c.seed != nil {
		t.Fatalf("len=%d size=%d seeded=%v", c.Len(), c.Size(), c.seed != nil)
	}
}
