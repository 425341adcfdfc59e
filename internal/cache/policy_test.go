// policy_test.go hardens the heap policy at the level
// TestPolicyOrderingOnZipfStream and the cache-policy-matrix spec depend on:
// exact eviction order, deterministic tie-breaking, and byte accounting
// across in-place updates — plus the multi-level RAM/disk promotion and
// demotion cycle.
package cache

import "testing"

// TestGDSizeEvictionOrder: GD-Size priority is L + 1e6/size, so larger
// objects go first, in size order, until the newcomer fits.
func TestGDSizeEvictionOrder(t *testing.T) {
	c := mustPolicy("gd-size", 1000)
	c.Put(1, 500) // lowest priority (largest)
	c.Put(2, 300)
	c.Put(3, 200)
	// 400 bytes arrive: evicting key 1 alone (500 bytes) must suffice;
	// the smaller, higher-priority keys stay.
	c.Put(4, 400)
	if c.Contains(1) {
		t.Error("largest (lowest-priority) object survived")
	}
	for _, k := range []uint64{2, 3, 4} {
		if !c.Contains(k) {
			t.Errorf("key %d evicted out of priority order", k)
		}
	}
	if c.Size() != 900 {
		t.Errorf("size = %d, want 900", c.Size())
	}
	// Next pressure round: key 4 (400 bytes) is now the largest resident.
	c.Put(5, 300)
	if c.Contains(4) {
		t.Error("eviction order wrong on second round")
	}
	if !c.Contains(2) || !c.Contains(3) || !c.Contains(5) {
		t.Error("higher-priority objects evicted")
	}
}

// TestGDSizeTieBreaking: equal sizes mean equal priorities; the older
// insertion is evicted first (heap ties break on insertion tick).
func TestGDSizeTieBreaking(t *testing.T) {
	c := mustPolicy("gd-size", 300)
	c.Put(10, 100)
	c.Put(11, 100)
	c.Put(12, 100)
	c.Put(13, 100) // one must go: key 10, the oldest of the equal class
	if c.Contains(10) {
		t.Error("tie did not evict the oldest entry")
	}
	for _, k := range []uint64{11, 12, 13} {
		if !c.Contains(k) {
			t.Errorf("key %d evicted despite younger tie-break rank", k)
		}
	}
}

// TestGreedyDualByteAccountingAfterUpdate: re-putting a resident key
// with a new size must adjust Size by the delta, and shrinking must not
// trigger eviction.
func TestGreedyDualByteAccountingAfterUpdate(t *testing.T) {
	for _, name := range []string{"gd-size", "gdsf"} {
		c := mustPolicy(name, 1000)
		c.Put(1, 400)
		c.Put(2, 400)
		if c.Size() != 800 {
			t.Fatalf("%s: size = %d, want 800", name, c.Size())
		}
		c.Put(1, 100) // shrink in place
		if c.Size() != 500 || c.Len() != 2 {
			t.Errorf("%s: after shrink size = %d len = %d, want 500/2", name, c.Size(), c.Len())
		}
		c.Put(1, 600) // grow in place: 600+400 fits exactly
		if c.Size() != 1000 || !c.Contains(1) || !c.Contains(2) {
			t.Errorf("%s: after grow size = %d, want 1000 with both resident", name, c.Size())
		}
		// Grow beyond capacity: must evict, never overflow. At 700 bytes
		// key 1's priority (∝ 1/size) drops below key 2's, so GD-Size
		// evicts the freshly-grown object itself — the correct victim.
		c.Put(1, 700)
		if c.Size() > c.Capacity() {
			t.Errorf("%s: size %d exceeds capacity %d after growth eviction", name, c.Size(), c.Capacity())
		}
		if c.Contains(1) || !c.Contains(2) || c.Size() != 400 {
			t.Errorf("%s: after growth eviction contains(1)=%v contains(2)=%v size=%d, want false/true/400",
				name, c.Contains(1), c.Contains(2), c.Size())
		}
	}
}

// TestLFUTieBreaking: equal frequencies evict the older insertion first.
func TestLFUTieBreaking(t *testing.T) {
	c := mustPolicy("lfu", 300)
	c.Put(1, 100)
	c.Put(2, 100)
	c.Put(3, 100)
	c.Put(4, 100) // all at frequency 1: key 1 is the tie-break victim
	if c.Contains(1) {
		t.Error("tie did not evict the oldest equal-frequency entry")
	}
	if !c.Contains(2) || !c.Contains(3) || !c.Contains(4) {
		t.Error("younger equal-frequency entries evicted")
	}
}

// TestLFUByteAccountingAfterUpdate: a resident re-Put keeps one entry
// and tracks the byte delta; eviction under growth respects frequency.
func TestLFUByteAccountingAfterUpdate(t *testing.T) {
	c := mustPolicy("lfu", 1000)
	c.Put(1, 400)
	c.Put(2, 400)
	c.Get(1) // key 1 now hotter
	c.Put(1, 900)
	if c.Len() != 1 || !c.Contains(1) || c.Contains(2) {
		t.Fatalf("growth eviction kept the cold key: len=%d", c.Len())
	}
	if c.Size() != 900 {
		t.Errorf("size = %d, want 900", c.Size())
	}
	c.Resize(899) // evicts key 1 at its updated size
	if c.Size() != 0 || c.Len() != 0 {
		t.Errorf("after shrink: size = %d len = %d", c.Size(), c.Len())
	}
}

// TestMultiLevelDemotionCycle: a RAM eviction demotes an object to
// disk-only; the next lookup is a disk hit that re-promotes it, evicting
// its rival in turn.
func TestMultiLevelDemotionCycle(t *testing.T) {
	m := NewMultiLevel(NewLRU(100), NewLRU(1000))
	m.Insert(1, 60)
	m.Insert(2, 60) // RAM (100B) can hold only one: key 1 demoted
	if m.RAM.Contains(1) {
		t.Fatal("RAM kept both objects past capacity")
	}
	if !m.Disk.Contains(1) || !m.Disk.Contains(2) {
		t.Fatal("demotion lost the disk copy")
	}
	// Looking key 1 up again: a disk hit that promotes it back to RAM,
	// demoting key 2.
	if lv := m.Lookup(1, 60); lv != LevelDisk {
		t.Fatalf("demoted object looked up at level %v, want disk", lv)
	}
	if !m.RAM.Contains(1) || m.RAM.Contains(2) {
		t.Fatal("disk hit did not re-promote / demote")
	}
	if lv := m.Lookup(1, 60); lv != LevelRAM {
		t.Fatalf("promoted object looked up at level %v, want ram", lv)
	}
}
