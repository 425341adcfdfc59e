package cache

import (
	"math"

	"vidperf/internal/stats"
)

// LRU is a least-recently-used byte-capacity cache, the Apache Traffic
// Server default eviction policy the paper's CDN runs.
//
// The implementation is allocation-conscious: entries live in a flat
// arena of parallel pointer-free slices (key, size, prev/next links as
// int32 indexes — an intrusive doubly-linked list with a free list), and
// the key index is an open-addressing table that stores a 16-bit hash
// fingerprint plus the arena index, resolving fingerprint collisions
// against the arena's full keys. An arena entry therefore costs 20 bytes
// plus 6 bytes per index slot, all pointer-free. The observable
// behaviour (hit/miss outcomes and eviction order) is bit-for-bit the
// policy behaviour LRU has always had.
//
// Below the arena an LRU may hold a seeded segment (SetSeed): a
// read-only warm set it answers from directly, so a cache warmed with
// tens of thousands of objects costs nothing until a request touches
// one. The segment is always older than every arena entry. Eviction
// drains it from its oldest end before it takes the arena tail, and a
// touched seed entry moves (bytes and all) into the arena at the front.
// The cache is then indistinguishable from one filled by Put-ing every
// seed entry in order.
//
// Object sizes are stored as int32: anything larger than 2 GiB - 1 is
// treated as uncacheable (Put is a no-op), the same way objects larger
// than the capacity already are. Chunk sizes in this simulator top out
// in the megabytes.
type LRU struct {
	capacity int64
	size     int64 // resident bytes, arena and seeded segment together

	// Arena: parallel per-node slices, linked by int32 indexes.
	keys  []uint64
	sizes []int32
	prev  []int32
	next  []int32

	free int32 // head of the free-node list (chained via next), lruNil if empty
	head int32 // most recently used, lruNil if empty
	tail int32 // least recently used, lruNil if empty

	index lruTable

	// Seeded segment: the entries of seed at or after seedCursor whose
	// size fits seedCap (the capacity at SetSeed), minus those promoted
	// into the arena (so the arena index holds them). seedN counts the
	// rest; the seed is dropped when it reaches zero.
	seed       Seed
	seedCursor uint64
	seedCap    int64
	seedN      int
}

// Seed is an ordered, read-only set of distinct (key, size) entries an
// LRU can be seeded with (see (*LRU).SetSeed). Entries are addressed by
// positions that increase from the oldest entry to the newest; positions
// need not be dense. Every size must be at most math.MaxInt32.
type Seed interface {
	// Fit sizes the newest suffix an empty LRU of the given capacity
	// keeps when every entry is Put in order: entries whose size is not
	// in (0, capacity] are skipped, and the rest are taken newest first
	// until the next one would overflow the capacity. It returns a
	// position start such that the suffix is exactly the admissible
	// entries at or after start, plus their count and total bytes.
	Fit(capacity int64) (start uint64, n int, bytes int64)
	// Find returns the position and size of key's entry, or ok == false
	// when key is not an entry.
	Find(key uint64) (pos uint64, size int64, ok bool)
	// Next returns the oldest entry at or after pos, or ok == false when
	// there is none.
	Next(pos uint64) (at, key uint64, size int64, ok bool)
}

// lruNil marks "no node" in arena links.
const lruNil = int32(-1)

// NewLRU returns an LRU cache holding at most capacity bytes.
// It panics if capacity <= 0.
func NewLRU(capacity int64) *LRU {
	if capacity <= 0 {
		panic("cache: NewLRU capacity must be positive")
	}
	c := &LRU{capacity: capacity, free: lruNil, head: lruNil, tail: lruNil}
	c.index.init(16)
	return c
}

// Get implements Policy.
func (c *LRU) Get(key uint64) bool {
	if n, ok := c.index.get(c.keys, key); ok {
		c.moveToFront(n)
		return true
	}
	size, ok := c.seedLookup(key)
	if ok {
		c.promote(key, size)
	}
	return ok
}

// Put implements Policy.
func (c *LRU) Put(key uint64, size int64) {
	if size <= 0 || size > c.capacity || size > math.MaxInt32 {
		return
	}
	if n, ok := c.index.get(c.keys, key); ok {
		c.size += size - int64(c.sizes[n])
		c.sizes[n] = int32(size)
		c.moveToFront(n)
	} else if old, ok := c.seedLookup(key); ok {
		c.size += size - old
		c.promote(key, size)
	} else {
		c.pushNew(key, size)
		c.size += size
	}
	for c.size > c.capacity {
		c.evictOldest()
	}
}

// evictOldest evicts the least-recent entry: the oldest of the seeded
// segment while it has any, else the arena tail.
func (c *LRU) evictOldest() {
	if c.seedN > 0 {
		c.evictSeed()
		return
	}
	n := c.tail
	if n == lruNil {
		return
	}
	c.size -= int64(c.sizes[n])
	c.index.del(c.keys, c.keys[n])
	c.unlink(n)
	c.freeNode(n)
}

// Contains implements Policy.
func (c *LRU) Contains(key uint64) bool {
	if _, ok := c.index.get(c.keys, key); ok {
		return true
	}
	_, ok := c.seedLookup(key)
	return ok
}

// Len implements Policy.
func (c *LRU) Len() int { return c.index.n + c.seedN }

// Size implements Policy.
func (c *LRU) Size() int64 { return c.size }

// Capacity implements Policy.
func (c *LRU) Capacity() int64 { return c.capacity }

// Reserve pre-sizes the arena and the key index for n arena entries, so
// the inserts that follow perform no incremental growth. Seeded entries
// take no arena space until they are touched, so a seeded cache reserves
// for the entries a run will promote or add, not for its seed. Reserve
// never shrinks and does not change the cache's contents or capacity in
// bytes.
func (c *LRU) Reserve(n int) {
	if cap(c.keys) < n {
		keys := make([]uint64, len(c.keys), n)
		copy(keys, c.keys)
		c.keys = keys
		sizes := make([]int32, len(c.sizes), n)
		copy(sizes, c.sizes)
		c.sizes = sizes
		prev := make([]int32, len(c.prev), n)
		copy(prev, c.prev)
		c.prev = prev
		next := make([]int32, len(c.next), n)
		copy(next, c.next)
		c.next = next
	}
	c.index.reserve(c.keys, n)
}

// Resize implements Policy: least-recent entries are evicted until the
// resident set fits the new capacity.
func (c *LRU) Resize(capacity int64) {
	if capacity < 1 {
		capacity = 1
	}
	c.capacity = capacity
	for c.size > c.capacity && (c.seedN > 0 || c.tail != lruNil) {
		c.evictOldest()
	}
}

// SetSeed makes s the cache's content: afterwards the LRU behaves
// exactly as if every entry of s had been Put in order, oldest first,
// yet it builds an arena entry only for a seed entry a later Get or Put
// touches. The cache must be empty, and s must not change while the
// cache uses it.
func (c *LRU) SetSeed(s Seed) {
	if c.Len() != 0 {
		panic("cache: SetSeed on a non-empty LRU")
	}
	start, n, bytes := s.Fit(c.capacity)
	if n == 0 {
		return
	}
	c.seed, c.seedCursor, c.seedCap, c.seedN = s, start, c.capacity, n
	c.size = bytes
}

// --- seeded segment --------------------------------------------------------

// seedLookup returns the size of key's entry in the seeded segment. The
// caller has already missed in the arena, so the entry has not been
// promoted.
func (c *LRU) seedLookup(key uint64) (int64, bool) {
	if c.seed == nil {
		return 0, false
	}
	pos, size, ok := c.seed.Find(key)
	if !ok || pos < c.seedCursor || size <= 0 || size > c.seedCap {
		return 0, false
	}
	return size, true
}

// promote moves a segment entry into the arena at the front, with the
// given size. Its bytes stay counted in c.size.
func (c *LRU) promote(key uint64, size int64) {
	c.pushNew(key, size)
	c.takeSeed()
}

// takeSeed accounts for one entry leaving the segment, dropping the seed
// when the segment empties.
func (c *LRU) takeSeed() {
	c.seedN--
	if c.seedN == 0 {
		c.seed = nil
	}
}

// evictSeed evicts the segment's oldest entry by advancing the cursor
// past it, skipping the entries that already left the segment.
func (c *LRU) evictSeed() {
	for {
		at, key, size, ok := c.seed.Next(c.seedCursor)
		if !ok {
			panic("cache: seeded segment ran out before its count")
		}
		c.seedCursor = at + 1
		if size <= 0 || size > c.seedCap {
			continue
		}
		if _, promoted := c.index.get(c.keys, key); promoted {
			continue
		}
		c.size -= size
		c.takeSeed()
		return
	}
}

// --- intrusive list over the arena ---------------------------------------

// pushNew adds key as a new arena entry at the front.
func (c *LRU) pushNew(key uint64, size int64) {
	n := c.allocNode(key, int32(size))
	c.pushFront(n)
	c.index.put(c.keys, key, n)
}

func (c *LRU) allocNode(key uint64, size int32) int32 {
	if n := c.free; n != lruNil {
		c.free = c.next[n]
		c.keys[n] = key
		c.sizes[n] = size
		c.prev[n] = lruNil
		c.next[n] = lruNil
		return n
	}
	c.keys = append(c.keys, key)
	c.sizes = append(c.sizes, size)
	c.prev = append(c.prev, lruNil)
	c.next = append(c.next, lruNil)
	return int32(len(c.keys) - 1)
}

func (c *LRU) freeNode(n int32) {
	c.keys[n] = 0
	c.sizes[n] = 0
	c.prev[n] = lruNil
	c.next[n] = c.free
	c.free = n
}

func (c *LRU) pushFront(n int32) {
	c.prev[n] = lruNil
	c.next[n] = c.head
	if c.head != lruNil {
		c.prev[c.head] = n
	}
	c.head = n
	if c.tail == lruNil {
		c.tail = n
	}
}

func (c *LRU) unlink(n int32) {
	prev, next := c.prev[n], c.next[n]
	if prev != lruNil {
		c.next[prev] = next
	} else {
		c.head = next
	}
	if next != lruNil {
		c.prev[next] = prev
	} else {
		c.tail = prev
	}
}

func (c *LRU) moveToFront(n int32) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// --- open-addressing index ------------------------------------------------

// lruTable maps chunk keys to arena node indexes with linear probing and
// backward-shift deletion (no tombstones, so heavy churn from evictions
// never degrades probes). Each slot stores a 16-bit fingerprint (the top
// hash bits — disjoint from the low bits that pick the probe start for
// any table up to 2^48 slots) and the arena index; a fingerprint match
// is confirmed against the arena's full key, so lookups stay exact. The
// table never stores full keys, which is what gets it to 6 bytes per
// slot. Capacity is a power of two; load stays <= 3/4.
type lruTable struct {
	fps  []uint16
	vals []int32 // arena node index; lruNil marks an empty slot
	mask uint64
	n    int
}

func (t *lruTable) init(capacity int) {
	t.fps = make([]uint16, capacity)
	t.vals = make([]int32, capacity)
	for i := range t.vals {
		t.vals[i] = lruNil
	}
	t.mask = uint64(capacity - 1)
	t.n = 0
}

func (t *lruTable) get(keys []uint64, key uint64) (int32, bool) {
	h := stats.SplitMix64(key)
	fp := uint16(h >> 48)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		v := t.vals[i]
		if v == lruNil {
			return 0, false
		}
		if t.fps[i] == fp && keys[v] == key {
			return v, true
		}
	}
}

func (t *lruTable) put(keys []uint64, key uint64, val int32) {
	if 4*(t.n+1) > 3*len(t.vals) {
		t.grow(keys)
	}
	h := stats.SplitMix64(key)
	fp := uint16(h >> 48)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		v := t.vals[i]
		if v == lruNil {
			t.fps[i] = fp
			t.vals[i] = val
			t.n++
			return
		}
		if t.fps[i] == fp && keys[v] == key {
			t.vals[i] = val
			return
		}
	}
}

// del removes key. The arena entry it maps to must still hold the key
// (callers delete from the index before freeing the node), as must every
// other live entry's node, since backward shifting recomputes their home
// slots from the arena keys.
func (t *lruTable) del(keys []uint64, key uint64) {
	h := stats.SplitMix64(key)
	fp := uint16(h >> 48)
	i := h & t.mask
	for {
		v := t.vals[i]
		if v == lruNil {
			return
		}
		if t.fps[i] == fp && keys[v] == key {
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	// Backward-shift deletion: pull later probe-chain members into the
	// vacated slot so lookups never need tombstones.
	j := i
	for {
		j = (j + 1) & t.mask
		if t.vals[j] == lruNil {
			break
		}
		hj := stats.SplitMix64(keys[t.vals[j]]) & t.mask
		// Move j down iff its ideal slot does not sit strictly between
		// the hole and j (cyclically) — i.e. its probe passed the hole.
		if (j-hj)&t.mask >= (j-i)&t.mask {
			t.fps[i] = t.fps[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.vals[i] = lruNil
}

// reserve grows the table so n entries fit under the load bound without
// further growth, rehashing the current entries once.
func (t *lruTable) reserve(keys []uint64, n int) {
	target := len(t.vals)
	for 4*n > 3*target {
		target *= 2
	}
	if target == len(t.vals) {
		return
	}
	t.rehash(keys, target)
}

func (t *lruTable) grow(keys []uint64) {
	t.rehash(keys, 2*len(t.vals))
}

func (t *lruTable) rehash(keys []uint64, capacity int) {
	oldVals := t.vals
	t.init(capacity)
	for _, v := range oldVals {
		if v != lruNil {
			t.put(keys, keys[v], v)
		}
	}
}

var _ Policy = (*LRU)(nil)
