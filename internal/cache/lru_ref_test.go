package cache

import (
	"container/list"
	"testing"

	"vidperf/internal/stats"
)

// refLRU is the straightforward container/list implementation the
// arena-backed LRU replaced. It exists only as a differential-testing
// oracle: the two must agree on every observable (hit/miss outcomes,
// eviction order, size accounting) for any operation sequence.
type refLRU struct {
	capacity int64
	size     int64
	ll       *list.List
	items    map[uint64]*list.Element
}

type refEntry struct {
	key  uint64
	size int64
}

func newRefLRU(capacity int64) *refLRU {
	return &refLRU{capacity: capacity, ll: list.New(), items: make(map[uint64]*list.Element)}
}

func (c *refLRU) Get(key uint64) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.MoveToFront(el)
	return true
}

func (c *refLRU) Put(key uint64, size int64) {
	if size <= 0 || size > c.capacity {
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*refEntry)
		c.size += size - e.size
		e.size = size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&refEntry{key: key, size: size})
		c.size += size
	}
	for c.size > c.capacity {
		el := c.ll.Back()
		if el == nil {
			return
		}
		e := el.Value.(*refEntry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.size -= e.size
	}
}

func (c *refLRU) Contains(key uint64) bool { _, ok := c.items[key]; return ok }

func (c *refLRU) Resize(capacity int64) {
	if capacity < 1 {
		capacity = 1
	}
	c.capacity = capacity
	for c.size > c.capacity && c.ll.Len() > 0 {
		el := c.ll.Back()
		e := el.Value.(*refEntry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.size -= e.size
	}
}

// recencyOrder returns the reference cache's keys from most to least
// recently used.
func (c *refLRU) recencyOrder() []uint64 {
	var out []uint64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*refEntry).key)
	}
	return out
}

// recencyOrder walks the arena list from head (MRU) to tail (LRU).
func (c *LRU) recencyOrder() []uint64 {
	var out []uint64
	for n := c.head; n != lruNil; n = c.next[n] {
		out = append(out, c.keys[n])
	}
	return out
}

// TestLRUMatchesReference drives the arena LRU and the container/list
// oracle through long randomized operation sequences (gets, puts,
// re-puts, resizes over a small key space so evictions and
// collisions are constant) and demands identical observables after every
// step — including the full recency order, which pins eviction order
// exactly.
func TestLRUMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := stats.NewRand(seed)
		c := NewLRU(10_000)
		ref := newRefLRU(10_000)
		for op := 0; op < 20_000; op++ {
			key := uint64(r.Intn(400))
			switch r.Intn(9) {
			case 0:
				if got, want := c.Get(key), ref.Get(key); got != want {
					t.Fatalf("seed %d op %d: Get(%d) = %v, reference %v", seed, op, key, got, want)
				}
			case 1:
				// Occasionally resize within a band that forces evictions.
				cap := int64(2_000 + r.Intn(12_000))
				c.Resize(cap)
				ref.Resize(cap)
			default:
				size := int64(1 + r.Intn(1_500))
				c.Put(key, size)
				ref.Put(key, size)
			}
			if c.Size() != ref.size || c.Len() != len(ref.items) {
				t.Fatalf("seed %d op %d: size/len = %d/%d, reference %d/%d",
					seed, op, c.Size(), c.Len(), ref.size, len(ref.items))
			}
		}
		got, want := c.recencyOrder(), ref.recencyOrder()
		if len(got) != len(want) {
			t.Fatalf("seed %d: recency length %d, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: recency[%d] = %d, reference %d", seed, i, got[i], want[i])
			}
		}
	}
}

// TestLRUDegenerateOps covers the paths randomized runs hit rarely:
// oversized and non-positive puts, and resizing an empty cache.
func TestLRUDegenerateOps(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 0)
	c.Put(2, -5)
	c.Put(3, 101)
	if c.Len() != 0 || c.Size() != 0 {
		t.Fatalf("degenerate puts were admitted: len=%d size=%d", c.Len(), c.Size())
	}
	c.Resize(0) // clamps to 1
	if c.Capacity() != 1 {
		t.Fatalf("Resize(0) capacity = %d, want 1", c.Capacity())
	}
	c.Resize(10)
	c.Put(7, 10)
	if !c.Contains(7) || c.Size() != 10 {
		t.Fatalf("exact-fit put failed: contains=%v size=%d", c.Contains(7), c.Size())
	}
	c.Put(8, 10)
	if c.Contains(7) || !c.Contains(8) {
		t.Fatalf("eviction on exact-capacity replacement failed")
	}
}
