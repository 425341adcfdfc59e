// Package cache implements the byte-capacity object caches used by the CDN
// substrate. There are two Policy implementations: LRU (the ATS default
// the paper measures) and one heap policy that evicts the entry of least
// priority, whose priority rule gives in-cache LFU, perfect LFU, and
// GreedyDual-Size / GDSF (the "better suited policies for
// popularity-heavy workloads" the paper's §4.1 take-away recommends).
// NewPolicy builds either by name. A two-level RAM+disk composition
// mirrors the ATS "multi-level" cache.
//
// All policies share the Policy interface and keep no hit counters:
// TestPolicyOrderingOnZipfStream compares them on identical request
// streams, and the cache-policy-matrix spec compares them inside the CDN.
package cache

// Policy is a byte-capacity cache eviction policy. Implementations are not
// safe for concurrent use; the CDN server model serializes access.
type Policy interface {
	// Get looks up key and, on a hit, records the access (recency and/or
	// frequency update). It reports whether the object was resident.
	Get(key uint64) bool
	// Put inserts key with the given size in bytes, evicting as needed.
	// Objects larger than the capacity are not admitted. Re-putting a
	// resident key refreshes it.
	Put(key uint64, size int64)
	// Contains reports residency without recording an access.
	Contains(key uint64) bool
	// Len returns the number of resident objects.
	Len() int
	// Size returns the total resident bytes.
	Size() int64
	// Capacity returns the configured byte capacity.
	Capacity() int64
	// Resize changes the byte capacity, evicting in normal policy order
	// until the resident set fits (a shrinking cache behaves exactly as
	// if the displaced objects had lost an eviction contest). Capacities
	// below one byte clamp to one. Growing never evicts. This is the
	// hook behind timed cache-degradation phases (internal/timeline).
	Resize(capacity int64)
}

// NewPolicy constructs a policy by name: "lru", "lfu", "perfect-lfu",
// "gd-size" or "gdsf". It returns false for an unknown name, and panics
// if capacity <= 0.
func NewPolicy(name string, capacity int64) (Policy, bool) {
	if name == "lru" {
		return NewLRU(capacity), true
	}
	rule, ok := heapRules[name]
	if !ok {
		return nil, false
	}
	return newHeapPolicy(capacity, rule), true
}
