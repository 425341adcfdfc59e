// Package cache implements the byte-capacity object caches used by the CDN
// substrate: LRU (the ATS default the paper measures), in-cache LFU,
// perfect LFU, and GreedyDual-Size / GDSF (the "better suited policies for
// popularity-heavy workloads" the paper's §4.1 take-away recommends).
// A two-level RAM+disk composition mirrors the ATS "multi-level" cache.
//
// All policies share the Policy interface and keep no hit counters:
// TestPolicyOrderingOnZipfStream and examples/cache-policy compare them on
// identical request streams and tally the outcomes with Stats.
package cache

// Policy is a byte-capacity cache eviction policy. Implementations are not
// safe for concurrent use; the CDN server model serializes access.
type Policy interface {
	// Name identifies the policy (e.g. "lru", "gdsf").
	Name() string
	// Get looks up key and, on a hit, records the access (recency and/or
	// frequency update). It reports whether the object was resident.
	Get(key uint64) bool
	// Put inserts key with the given size in bytes, evicting as needed.
	// Objects larger than the capacity are not admitted. Re-putting a
	// resident key refreshes it.
	Put(key uint64, size int64)
	// Contains reports residency without recording an access.
	Contains(key uint64) bool
	// Remove evicts key if resident.
	Remove(key uint64)
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

// Stats counts cache outcomes for a request stream.
type Stats struct {
	Hits   int64
	Misses int64
}

// Record adds one lookup outcome.
func (s *Stats) Record(hit bool) {
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}
}

// Requests returns the total number of recorded lookups.
func (s *Stats) Requests() int64 { return s.Hits + s.Misses }

// HitRatio returns Hits/Requests, or 0 before any request.
func (s *Stats) HitRatio() float64 {
	if n := s.Requests(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// MissRatio returns 1 - HitRatio for a non-empty stream, else 0.
func (s *Stats) MissRatio() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return 1 - s.HitRatio()
}
