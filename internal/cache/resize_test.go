package cache

import "testing"

// TestResizeShrinkEvicts: shrinking must evict down to the new capacity
// in each policy's normal order, and growth back must not resurrect
// anything.
func TestResizeShrinkEvicts(t *testing.T) {
	for _, name := range policyNames {
		t.Run(name, func(t *testing.T) {
			p := mustPolicy(name, 1000)
			for k := uint64(1); k <= 10; k++ {
				p.Put(k, 100)
			}
			if p.Size() != 1000 || p.Len() != 10 {
				t.Fatalf("setup: size=%d len=%d", p.Size(), p.Len())
			}
			p.Resize(250)
			if p.Capacity() != 250 {
				t.Fatalf("Capacity() = %d after Resize(250)", p.Capacity())
			}
			if p.Size() > 250 {
				t.Fatalf("size %d exceeds shrunk capacity", p.Size())
			}
			if p.Len() != 2 {
				t.Fatalf("len = %d after shrink, want 2", p.Len())
			}
			evicted := p.Len()
			p.Resize(1000)
			if p.Len() != evicted {
				t.Fatalf("growing resurrected entries: len %d", p.Len())
			}
			// And the restored capacity admits new objects again.
			p.Put(99, 700)
			if !p.Contains(99) {
				t.Fatal("restored capacity did not admit a new object")
			}
		})
	}
}

// TestResizeEvictionOrder: LRU must shed the least-recently-used entries
// on shrink, exactly as demand eviction would.
func TestResizeEvictionOrder(t *testing.T) {
	c := NewLRU(300)
	c.Put(1, 100)
	c.Put(2, 100)
	c.Put(3, 100)
	c.Get(1) // 2 is now the oldest
	c.Resize(200)
	if c.Contains(2) {
		t.Fatal("LRU shrink kept the least-recent entry")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("LRU shrink evicted a recent entry")
	}
}

// TestResizeClampsToOneByte: capacities below one byte clamp instead of
// panicking (a timeline cache factor can be arbitrarily small).
func TestResizeClampsToOneByte(t *testing.T) {
	for _, name := range policyNames {
		p := mustPolicy(name, 100)
		p.Put(1, 50)
		p.Resize(0)
		if p.Capacity() != 1 {
			t.Fatalf("%s: Capacity() = %d after Resize(0), want 1", name, p.Capacity())
		}
		if p.Len() != 0 {
			t.Fatalf("%s: %d entries survived a 1-byte cache", name, p.Len())
		}
	}
}

// TestResizeInCacheCountersDie: LFU/GDSF in-cache frequency state must be
// released for entries a resize evicts (same contract as demand
// eviction), so a later re-admission starts fresh.
func TestResizeInCacheCountersDie(t *testing.T) {
	c := mustPolicy("lfu", 200).(*heapPolicy)
	c.Put(1, 100)
	c.Put(2, 100)
	c.Get(1)
	c.Get(1) // freq(1)=3, freq(2)=1
	c.Resize(100)
	if c.Contains(2) {
		t.Fatal("LFU shrink evicted the frequent entry")
	}
	if got := c.counts[2]; got != 0 {
		t.Fatalf("evicted entry kept in-cache frequency %v", got)
	}
	// Perfect-LFU keeps all-time counts across resize evictions.
	p := mustPolicy("perfect-lfu", 200).(*heapPolicy)
	p.Put(1, 100)
	p.Put(2, 100)
	p.Get(2)
	p.Resize(100)
	if p.counts[1] == 0 {
		t.Fatal("perfect-LFU resize dropped the all-time count")
	}
}

// TestMultiLevelResize: both levels shrink and restore together, and a
// shrunk multi-level cache demotes lookups to misses.
func TestMultiLevelResize(t *testing.T) {
	m := NewMultiLevel(NewLRU(1000), NewLRU(2000))
	for k := uint64(1); k <= 10; k++ {
		m.Insert(k, 100)
	}
	m.Resize(100, 200)
	if m.RAM.Capacity() != 100 || m.Disk.Capacity() != 200 {
		t.Fatalf("capacities = %d/%d", m.RAM.Capacity(), m.Disk.Capacity())
	}
	if m.RAM.Size() > 100 || m.Disk.Size() > 200 {
		t.Fatalf("sizes = %d/%d exceed shrunk capacities", m.RAM.Size(), m.Disk.Size())
	}
	misses := 0
	for k := uint64(1); k <= 10; k++ {
		if m.Lookup(k, 100) == LevelMiss {
			misses++
		}
	}
	if misses < 7 {
		t.Fatalf("only %d/10 lookups missed a 3-object cache", misses)
	}
}
