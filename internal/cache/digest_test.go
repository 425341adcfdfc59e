package cache

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"vidperf/internal/stats"
)

// policyDigest drives the named policy through a seeded stream of Get,
// Put (zero, admissible and over-capacity sizes) and Resize (shrinking,
// growing and clamping) calls, and folds every hit, Contains answer,
// Len and Size into an FNV-1a digest. Any change in eviction order,
// priority arithmetic, tie-breaking or frequency bookkeeping moves it.
func policyDigest(name string) uint64 {
	p, ok := NewPolicy(name, 10_000)
	if !ok {
		panic("unknown policy " + name)
	}
	r := stats.NewRand(2016)
	h := fnv.New64a()
	var buf [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for op := 0; op < 30_000; op++ {
		// Skewed keys: low keys recur often, so counts and ages build up.
		key := uint64(r.Intn(1 + r.Intn(400)))
		switch k := r.Intn(20); {
		case k < 9:
			fold(b2u(p.Get(key)))
		case k < 16:
			var size int64
			switch r.Intn(20) {
			case 0:
				size = 0
			case 1:
				size = p.Capacity() + 1 + int64(r.Intn(100))
			default:
				size = 1 + int64(r.Intn(800))
			}
			p.Put(key, size)
		case k < 18:
			fold(b2u(p.Contains(key)))
		case k < 19:
			// Shrinks and grows around the starting capacity; about one
			// resize in 24 asks for less than one byte and clamps.
			p.Resize(int64(r.Intn(24_000)) - 1_000)
			fold(uint64(p.Capacity()))
		default:
			fold(uint64(p.Capacity()))
		}
		fold(uint64(p.Len()))
		fold(uint64(p.Size()))
	}
	return h.Sum64()
}

// TestPolicyDigest pins every policy's observable behaviour on one long
// mixed stream. The digests were recorded from the implementation the
// current code must match bit for bit; a change that alters them changes
// eviction behaviour, and with it every cache_policy result.
func TestPolicyDigest(t *testing.T) {
	want := map[string]uint64{
		"lru":         0x526383259645d058,
		"lfu":         0x7f79cfa2baf5cc98,
		"perfect-lfu": 0xa84de24ccbcf3c1c,
		"gd-size":     0x27d9c92d81af0c52,
		"gdsf":        0xc7eaaf99d3847dba,
	}
	for _, name := range []string{"lru", "lfu", "perfect-lfu", "gd-size", "gdsf"} {
		if got := policyDigest(name); got != want[name] {
			t.Errorf("%s: digest %#016x, want %#016x", name, got, want[name])
		}
	}
}
