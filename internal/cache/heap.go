package cache

import "container/heap"

// priorityRule is what distinguishes the heap-ordered policies: which
// terms make up an entry's priority, and how long access counts live.
type priorityRule struct {
	// freq makes an entry's access count its value: the priority itself
	// for LFU, the numerator of the size term for GDSF. Without it every
	// entry is worth 1.
	freq bool
	// aging is GreedyDual's size-aware priority L + value*1e6/size (Cao
	// & Irani), where L rises to the priority of the last entry a Put
	// evicted, so stale entries age out without timestamps.
	aging bool
	// perfect keeps counts after eviction and counts misses and rejected
	// Puts too: the all-time frequency of perfect-LFU (Breslau et al.).
	perfect bool
}

// heapRules maps the heap-ordered policy names to their rules. With
// cost 1 and no frequency term, aging is GD-Size(1); with the frequency
// term it is GDSF. The paper's §4.1 take-away recommends these and
// perfect-LFU over ATS's default LRU for popularity-heavy workloads.
var heapRules = map[string]priorityRule{
	"lfu":         {freq: true},
	"perfect-lfu": {freq: true, perfect: true},
	"gd-size":     {aging: true},
	"gdsf":        {freq: true, aging: true},
}

// heapPolicy is a byte-capacity cache that always evicts the resident
// entry with the smallest priority, the older entry first on ties.
type heapPolicy struct {
	rule     priorityRule
	capacity int64
	size     int64
	items    map[uint64]*heapEntry
	heap     entryHeap
	tick     uint64             // insertion counter for deterministic tie-breaking
	l        float64            // GreedyDual aging term
	counts   map[uint64]float64 // access counts, when rule.freq
}

type heapEntry struct {
	key      uint64
	size     int64
	priority float64
	tick     uint64
	index    int // heap index
}

type entryHeap []*heapEntry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].tick < h[j].tick // older entry evicted first on ties
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x interface{}) {
	e := x.(*heapEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func newHeapPolicy(capacity int64, rule priorityRule) *heapPolicy {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	return &heapPolicy{
		rule:     rule,
		capacity: capacity,
		items:    make(map[uint64]*heapEntry),
		counts:   make(map[uint64]float64),
	}
}

// priority is key's priority at the given size under the rule.
func (c *heapPolicy) priority(key uint64, size int64) float64 {
	f := 1.0
	if c.rule.freq {
		f = c.counts[key]
	}
	if !c.rule.aging {
		return f
	}
	// Scale by 1e6 so priorities for megabyte-scale video chunks are not
	// lost to float underflow against the accumulating L term.
	return c.l + f*1e6/float64(size)
}

// Get implements Policy.
func (c *heapPolicy) Get(key uint64) bool {
	e, ok := c.items[key]
	if c.rule.freq && (ok || c.rule.perfect) {
		c.counts[key]++
	}
	if !ok {
		return false
	}
	e.priority = c.priority(key, e.size)
	heap.Fix(&c.heap, e.index)
	return true
}

// Put implements Policy.
func (c *heapPolicy) Put(key uint64, size int64) {
	fits := size > 0 && size <= c.capacity
	if c.rule.freq && c.counts[key] == 0 && (fits || c.rule.perfect) {
		c.counts[key] = 1
	}
	if !fits {
		return
	}
	p := c.priority(key, size)
	if e, ok := c.items[key]; ok {
		c.size += size - e.size
		e.size = size
		e.priority = p
		heap.Fix(&c.heap, e.index)
	} else {
		c.tick++
		e := &heapEntry{key: key, size: size, priority: p, tick: c.tick}
		c.items[key] = e
		heap.Push(&c.heap, e)
		c.size += size
	}
	if last := c.evict(); c.rule.aging && last > c.l {
		c.l = last
	}
}

// evict pops minimum-priority entries until the resident bytes fit the
// capacity, and returns the priority of the last one it popped (0 if
// none; L is never negative, so that never raises it).
func (c *heapPolicy) evict() (last float64) {
	for c.size > c.capacity && len(c.heap) > 0 {
		ev := heap.Pop(&c.heap).(*heapEntry)
		delete(c.items, ev.key)
		c.size -= ev.size
		if !c.rule.perfect {
			delete(c.counts, ev.key)
		}
		last = ev.priority
	}
	return last
}

// Contains implements Policy.
func (c *heapPolicy) Contains(key uint64) bool {
	_, ok := c.items[key]
	return ok
}

// Len implements Policy.
func (c *heapPolicy) Len() int { return len(c.items) }

// Size implements Policy.
func (c *heapPolicy) Size() int64 { return c.size }

// Capacity implements Policy.
func (c *heapPolicy) Capacity() int64 { return c.capacity }

// Resize implements Policy. Resize evictions drop in-cache counts as
// demand evictions do, but do not advance the aging term L: they are
// capacity events, not lost contests for space.
func (c *heapPolicy) Resize(capacity int64) {
	c.capacity = max(capacity, 1)
	c.evict()
}

var _ Policy = (*heapPolicy)(nil)
