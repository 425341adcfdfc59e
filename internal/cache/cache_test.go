package cache

import (
	"testing"
	"testing/quick"

	"vidperf/internal/stats"
)

func TestLRUBasics(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 40)
	c.Put(2, 40)
	if !c.Get(1) || !c.Get(2) {
		t.Fatal("expected both resident")
	}
	if c.Len() != 2 || c.Size() != 80 {
		t.Fatalf("len=%d size=%d", c.Len(), c.Size())
	}
	// Touch 1, then insert 3: 2 is now least recent and must be evicted.
	c.Get(1)
	c.Put(3, 40)
	if c.Contains(2) {
		t.Error("LRU should have evicted key 2")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("keys 1 and 3 should be resident")
	}
}

func TestLRUOversizedRejected(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 101)
	if c.Contains(1) || c.Size() != 0 {
		t.Error("oversized object admitted")
	}
	c.Put(2, 0)
	if c.Contains(2) {
		t.Error("zero-size object admitted")
	}
}

func TestLRUUpdateSize(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 30)
	c.Put(1, 60)
	if c.Size() != 60 || c.Len() != 1 {
		t.Errorf("size=%d len=%d after resize", c.Size(), c.Len())
	}
}

func TestLRURemove(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 30)
	c.Remove(1)
	if c.Contains(1) || c.Size() != 0 || c.Len() != 0 {
		t.Error("Remove did not clear entry")
	}
	c.Remove(99) // no-op must not panic
}

func TestLRUCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive capacity")
		}
	}()
	NewLRU(0)
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := NewLFU(100)
	c.Put(1, 40)
	c.Put(2, 40)
	c.Get(1)
	c.Get(1) // key 1 frequency 3 (put counts once), key 2 frequency 1
	c.Put(3, 40)
	if c.Contains(2) {
		t.Error("LFU should evict the least-frequently-used key 2")
	}
	if !c.Contains(1) {
		t.Error("hot key 1 evicted")
	}
}

func TestLFUNewInsertBouncesAgainstHotSet(t *testing.T) {
	// The classic LFU admission behaviour: a fresh frequency-1 insert that
	// does not fit is itself the minimum-priority entry, so it bounces and
	// the hot resident survives.
	c := NewLFU(100)
	c.Put(1, 60)
	for i := 0; i < 10; i++ {
		c.Get(1)
	}
	c.Put(2, 60)
	if !c.Contains(1) {
		t.Error("hot key 1 should survive")
	}
	if c.Contains(2) {
		t.Error("cold oversubscribing insert should bounce")
	}
}

func TestLFUForgetsOnEviction(t *testing.T) {
	// In-cache LFU: once evicted, a key's frequency history is gone.
	c := NewLFU(100)
	c.Put(1, 60)
	for i := 0; i < 10; i++ {
		c.Get(1) // freq 11
	}
	c.Remove(1) // simulate departure
	c.Put(2, 60)
	c.Get(2)
	c.Get(2) // freq 3
	// Re-inserted key 1 starts back at freq 1 and must lose to key 2.
	c.Put(1, 60)
	if c.Contains(1) {
		t.Error("re-inserted key kept stale frequency across eviction")
	}
	if !c.Contains(2) {
		t.Error("key 2 should survive")
	}
}

func TestPerfectLFUKeepsHistory(t *testing.T) {
	// Same sequence as TestLFUForgetsOnEviction, but with perfect LFU the
	// all-time frequency (11) survives eviction, so key 1 wins re-admission
	// against key 2 (freq 3).
	c := NewPerfectLFU(100)
	c.Put(1, 60)
	for i := 0; i < 10; i++ {
		c.Get(1) // freq 11
	}
	c.Remove(1)
	c.Put(2, 60)
	c.Get(2)
	c.Get(2) // freq 3
	c.Put(1, 60)
	if !c.Contains(1) {
		t.Error("perfect-LFU lost frequency history across eviction")
	}
	if c.Contains(2) {
		t.Error("low-history key 2 should have been displaced")
	}
}

func TestPerfectLFUHighFreqEvictionForSpace(t *testing.T) {
	// A hot object still leaves when everything else resident is hotter.
	c := NewPerfectLFU(100)
	c.Put(1, 60) // freq 1
	for i := 0; i < 30; i++ {
		c.Get(2) // build history for key 2 while absent: freq 30
	}
	c.Put(2, 60) // 120 > 100: evict min = key 1
	if c.Contains(1) {
		t.Error("key 1 (freq 2) should lose to key 2 (freq 31)")
	}
	if !c.Contains(2) {
		t.Error("key 2 should be admitted on history")
	}
}

func TestGDSizePrefersSmallObjects(t *testing.T) {
	c := NewGDSize(100)
	c.Put(1, 80) // large
	c.Put(2, 10) // small
	c.Put(3, 15) // forces eviction; GD-Size evicts the large low-value object
	if c.Contains(1) {
		t.Error("GD-Size should evict the large object first")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Error("small objects should survive")
	}
}

func TestGDSFFrequencyWins(t *testing.T) {
	c := NewGDSF(100)
	c.Put(1, 50)
	c.Put(2, 50)
	for i := 0; i < 20; i++ {
		c.Get(1)
	}
	c.Put(3, 50) // must evict 2 (same size, far lower frequency)
	if c.Contains(2) {
		t.Error("GDSF should evict the low-frequency object")
	}
	if !c.Contains(1) {
		t.Error("high-frequency object evicted")
	}
}

func TestGreedyDualAging(t *testing.T) {
	// After many evictions L rises, so a new cold object can displace an
	// old once-popular one: the cache does not fossilize.
	c := NewGDSF(100)
	c.Put(1, 50)
	for i := 0; i < 5; i++ {
		c.Get(1)
	}
	for k := uint64(10); k < 200; k++ {
		c.Put(k, 50)
	}
	if c.Contains(1) {
		t.Error("GreedyDual aging failed: stale hot object still resident")
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range []string{"lru", "lfu", "perfect-lfu", "gd-size", "gdsf"} {
		p, ok := NewPolicy(name, 1000)
		if !ok || p == nil {
			t.Errorf("NewPolicy(%q) failed", name)
			continue
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
		if p.Capacity() != 1000 {
			t.Errorf("capacity = %d", p.Capacity())
		}
	}
	if _, ok := NewPolicy("bogus", 1000); ok {
		t.Error("unknown policy accepted")
	}
}

func TestMultiLevelPromotion(t *testing.T) {
	m := NewMultiLevel(NewLRU(100), NewLRU(1000))
	if got := m.Lookup(1, 50); got != LevelMiss {
		t.Fatalf("first lookup = %v, want miss", got)
	}
	m.Insert(1, 50)
	if got := m.Lookup(1, 50); got != LevelRAM {
		t.Fatalf("after insert = %v, want ram", got)
	}
	// Push key 1 out of RAM (capacity 100) but not disk.
	m.Insert(2, 60)
	m.Insert(3, 60)
	if m.RAM.Contains(1) {
		t.Fatal("key 1 should have left RAM")
	}
	if got := m.Lookup(1, 50); got != LevelDisk {
		t.Fatalf("lookup = %v, want disk", got)
	}
	// The disk hit promotes back into RAM.
	if got := m.Lookup(1, 50); got != LevelRAM {
		t.Fatalf("post-promotion lookup = %v, want ram", got)
	}
}

func TestLevelString(t *testing.T) {
	if LevelRAM.String() != "ram" || LevelDisk.String() != "disk" || LevelMiss.String() != "miss" {
		t.Error("Level strings wrong")
	}
	if Level(42).String() != "unknown" {
		t.Error("unknown level string wrong")
	}
}

// Property: under any request stream, every policy maintains
// Size() <= Capacity(), non-negative size, and Len consistent with Size.
func TestPolicyInvariantsProperty(t *testing.T) {
	policies := []string{"lru", "lfu", "perfect-lfu", "gd-size", "gdsf"}
	for _, name := range policies {
		name := name
		f := func(seed uint64) bool {
			r := stats.NewRand(seed)
			p, _ := NewPolicy(name, 1000)
			for i := 0; i < 500; i++ {
				key := uint64(r.Intn(50))
				switch r.Intn(3) {
				case 0:
					p.Put(key, int64(1+r.Intn(400)))
				case 1:
					p.Get(key)
				case 2:
					p.Remove(key)
				}
				if p.Size() > p.Capacity() || p.Size() < 0 {
					return false
				}
				if (p.Len() == 0) != (p.Size() == 0) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: Contains agrees with Get-visibility (Get(k) true implies the
// object was resident; after Put of admissible size the object is
// resident unless capacity forced its own eviction group).
func TestContainsGetConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := NewLRU(500)
		for i := 0; i < 300; i++ {
			key := uint64(r.Intn(30))
			size := int64(1 + r.Intn(100))
			p.Put(key, size)
			if !p.Contains(key) {
				return false // admissible put must leave the key resident
			}
			if p.Contains(key) != p.Get(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// On a Zipf-skewed stream, frequency-aware policies should beat plain LRU
// on object hit ratio — the premise of the paper's §4.1 take-away.
func TestPolicyOrderingOnZipfStream(t *testing.T) {
	run := func(p Policy) float64 {
		r := stats.NewRand(42)
		z := stats.NewZipf(2000, 1.0)
		const requests = 60000
		hits := 0
		for i := 0; i < requests; i++ {
			key := uint64(z.Sample(r))
			size := int64(400 + 50*int(key%7))
			if p.Get(key) {
				hits++
			} else {
				p.Put(key, size)
			}
		}
		return float64(hits) / requests
	}
	lru := run(NewLRU(40000))
	plfu := run(NewPerfectLFU(40000))
	gdsf := run(NewGDSF(40000))
	if plfu <= lru {
		t.Errorf("perfect-LFU (%.3f) should beat LRU (%.3f) on Zipf stream", plfu, lru)
	}
	if gdsf <= lru {
		t.Errorf("GDSF (%.3f) should beat LRU (%.3f) on Zipf stream", gdsf, lru)
	}
}
