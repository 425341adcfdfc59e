package session

import (
	"math"
	"slices"

	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
)

// WarmPoP pre-populates the cache of the fleet's server in PoP pop with
// the catalog content that maps to its slot, in ascending popularity
// order (least popular first) so LRU recency ends up matching popularity.
// This simulates a CDN that has been serving the catalog for weeks — the
// regime the paper measures (average miss rate ~2%) — without paying for
// millions of warmup sessions. Warming is deterministic in (catalog,
// fleet config, slot): it draws no randomness, so each shard warms its
// own server exactly as a whole warmed deployment would.
//
// Warming covers the ladder rungs sessions actually converge to (>= 750
// kbps for all titles, every rung for the most popular quartile) plus the
// conservative startup rung for each title's first chunks. Cold rungs on
// cold titles are exactly the requests that miss — the paper's unpopular-
// content findings need that residue.
//
// Each server's insert sequence is a warmSet over the titles its slot
// owns, read from the catalog's ownership index (built by the first
// WarmPoP on the catalog, shared read-only by every later one). An empty
// LRU level (the default policy) takes it as a seed (cache.LRU.SetSeed):
// it behaves as if every insert had been replayed but materializes only
// the entries a session touches. Other policies, and a level that
// already holds content, replay the inserts through Put.
func WarmPoP(fleet *cdn.Fleet, cat *catalog.Catalog, pop int) {
	servers := fleet.PoPServers(pop)
	if len(cat.Bitrates) == 0 || servers == nil {
		return
	}
	cfg := fleet.Config()
	seedable := seedableCatalog(cat)
	for slot, srv := range servers {
		if srv == nil {
			continue
		}
		ws := newWarmSet(cat, cfg, slot)
		ml := srv.Cache()
		for _, p := range [2]cache.Policy{ml.Disk, ml.RAM} {
			if lru, ok := p.(*cache.LRU); ok && seedable && lru.Len() == 0 {
				lru.SetSeed(ws)
				continue
			}
			for pos := uint64(0); ; {
				at, key, size, ok := ws.Next(pos)
				if !ok {
					break
				}
				p.Put(key, size)
				pos = at + 1
			}
		}
	}
}

// seedableCatalog reports whether a warm set over cat meets the
// cache.Seed contract: distinct keys (a valid ladder, and chunk indexes
// that fit ChunkKey's 20-bit field) and sizes an LRU can hold.
func seedableCatalog(cat *catalog.Catalog) bool {
	top := cat.Bitrates[len(cat.Bitrates)-1]
	return catalog.ValidateBitrates(cat.Bitrates) == nil &&
		cat.ChunkDuration > 0 && catalog.MaxDurationSec/cat.ChunkDuration < warmChunkMask &&
		catalog.ChunkSizeBytes(top, cat.ChunkDuration) <= math.MaxInt32
}

// ownership is a catalog's warm-up ownership index under one fleet
// shape: for each rank below the cold tail, the slot that warms it
// (slot[rank], from cdn.SlotFor; -1 for the partitioned top ranks,
// which every slot warms), and for each slot the ranks it warms,
// ascending: ranks[off[s]:off[s+1]] (CSR layout).
type ownership struct {
	slot  []int32
	off   []int32
	ranks []int32
}

// ownershipKey is what an ownership index depends on besides its
// catalog: the two fleet knobs cdn.SlotFor reads.
type ownershipKey struct{ servers, partitionTop int }

// ownershipOf returns cat's ownership index under cfg (an effective
// configuration), building it on the first call (catalog.Derive). Every
// shard of a run shares the one catalog of its population, so the index
// is built once per run whatever the number of shards.
func ownershipOf(cat *catalog.Catalog, cfg cdn.FleetConfig) *ownership {
	return catalog.Derive(cat, ownershipKey{servers: cfg.ServersPerPoP, partitionTop: cfg.PartitionTopRanks}, newOwnership)
}

// newOwnership hashes each rank to its slot once, lays the slots out by
// a prefix sum of their counts and fills them in ascending rank order:
// four allocations, whatever the catalog size or slot count.
func newOwnership(cat *catalog.Catalog, key ownershipKey) *ownership {
	// The key holds every field cdn.SlotFor reads.
	cfg := cdn.FleetConfig{ServersPerPoP: key.servers, PartitionTopRanks: key.partitionTop}
	coldTail := coldTailOf(cat)
	o := &ownership{slot: make([]int32, coldTail), off: make([]int32, cfg.ServersPerPoP+1)}
	for rank := range o.slot {
		if cfg.PartitionTopRanks > 0 && rank < cfg.PartitionTopRanks {
			o.slot[rank] = -1
			for s := range cfg.ServersPerPoP {
				o.off[s+1]++
			}
			continue
		}
		s := cdn.SlotFor(cfg, cat.Videos[rank].ID, rank, 0)
		o.slot[rank] = int32(s)
		o.off[s+1]++
	}
	for s := 1; s < len(o.off); s++ {
		o.off[s] += o.off[s-1]
	}
	// o.off[s] is now slot s's start; use it as the slot's fill cursor,
	// then shift the cursors (each now the next slot's start) back.
	o.ranks = make([]int32, o.off[len(o.off)-1])
	place := func(s int, rank int) {
		o.ranks[o.off[s]] = int32(rank)
		o.off[s]++
	}
	for rank, s := range o.slot {
		if s >= 0 {
			place(int(s), rank)
			continue
		}
		for t := range cfg.ServersPerPoP {
			place(t, rank)
		}
	}
	copy(o.off[1:], o.off[:len(o.off)-1])
	o.off[0] = 0
	return o
}

// coldTailOf is the first rank that is never warmed. The deep tail
// (bottom 5% of ranks, ~2% of requests — matching the paper's ~2%
// average miss rate) was never requested in the cache's history: those
// titles are fully cold everywhere, giving the paper's persistent
// all-miss sessions (§4.1 finding 2) and Fig. 6a's rank gradient.
func coldTailOf(cat *catalog.Catalog) int { return len(cat.Videos) * 95 / 100 }

// warmSet is one server slot's warm insert sequence, as a cache.Seed.
// The sequence walks the slot's titles (its ranks in the ownership
// index) from the least popular warmed rank (just above the cold tail)
// to rank 0, each title's chunks in order and each chunk's eligible
// rungs in ascending bitrate. A position packs (rank order, chunk, rung
// index), so positions follow the insert order.
type warmSet struct {
	cat   *catalog.Catalog
	slot  int
	slots []int32 // the ownership index's slot of each rank
	ranks []int32 // the ranks the slot warms, ascending

	startRung   int // kbps of the conservative startup rung
	topQuartile int // ranks below it warm every rung
	coldTail    int // ranks from it on are never warmed
}

// Position layout: rank order (0 is rank coldTail-1) above bit 32, the
// chunk index in bits 12–31, the rung index in bits 0–11 — the widths
// ChunkKey gives chunks and rung codes.
const (
	warmOrderShift = 32
	warmChunkShift = 12
	warmChunkMask  = 1<<20 - 1
	warmRungMask   = 1<<12 - 1
)

func newWarmSet(cat *catalog.Catalog, cfg cdn.FleetConfig, slot int) *warmSet {
	startRung := cat.Bitrates[0]
	if len(cat.Bitrates) > 1 {
		startRung = cat.Bitrates[1]
	}
	o := ownershipOf(cat, cfg)
	return &warmSet{
		cat:         cat,
		slot:        slot,
		slots:       o.slot,
		ranks:       o.ranks[o.off[slot]:o.off[slot+1]],
		startRung:   startRung,
		topQuartile: len(cat.Videos) / 4,
		coldTail:    coldTailOf(cat),
	}
}

func warmPos(order, chunk, rung int) uint64 {
	return uint64(order)<<warmOrderShift | uint64(chunk)<<warmChunkShift | uint64(rung)
}

// owns reports whether the title at rank (below the cold tail) is
// warmed on this slot.
func (w *warmSet) owns(rank int) bool {
	s := w.slots[rank]
	return s < 0 || int(s) == w.slot
}

// startupChunks is how many leading chunks of a title warm the startup
// rung.
const startupChunks = 3

// eligible is the warming policy for one chunk at one rung of a title.
func (w *warmSet) eligible(rank, chunk, kbps int) bool {
	return kbps >= 750 || rank < w.topQuartile || (chunk < startupChunks && kbps == w.startRung)
}

// entry returns the key and size of chunk at rung b of title v.
func (w *warmSet) entry(v *catalog.Video, chunk, b int) (uint64, int64) {
	kbps := w.cat.Bitrates[b]
	return catalog.ChunkKey(v.ID, chunk, kbps), catalog.ChunkSizeBytes(kbps, w.cat.ChunkDurationSec(v, chunk))
}

// Next implements cache.Seed.
func (w *warmSet) Next(pos uint64) (uint64, uint64, int64, bool) {
	order := pos >> warmOrderShift
	if order >= uint64(w.coldTail) {
		return 0, 0, 0, false
	}
	chunk := int(pos >> warmChunkShift & warmChunkMask)
	b := int(pos & warmRungMask)
	i, at := slices.BinarySearch(w.ranks, int32(w.coldTail-1-int(order)))
	if !at { // resume at the slot's next title down
		i, chunk, b = i-1, 0, 0
	}
	for ; i >= 0; i, chunk, b = i-1, 0, 0 {
		rank := int(w.ranks[i])
		v := &w.cat.Videos[rank]
		for ; chunk < v.NumChunks; chunk, b = chunk+1, 0 {
			for ; b < len(w.cat.Bitrates); b++ {
				if w.eligible(rank, chunk, w.cat.Bitrates[b]) {
					key, size := w.entry(v, chunk, b)
					return warmPos(w.coldTail-1-rank, chunk, b), key, size, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// Find implements cache.Seed by decoding the ChunkKey and applying the
// warming policy to it.
func (w *warmSet) Find(key uint64) (uint64, int64, bool) {
	id := key >> 32
	chunk := int(key >> warmChunkShift & warmChunkMask)
	code := int(key & warmRungMask)
	if id >= uint64(w.coldTail) {
		return 0, 0, false
	}
	v := &w.cat.Videos[id]
	rank := v.Rank
	if v.ID != int(id) || rank >= w.coldTail || chunk >= v.NumChunks || !w.owns(rank) {
		return 0, 0, false
	}
	for b, kbps := range w.cat.Bitrates {
		if kbps/10 != code {
			continue
		}
		if !w.eligible(rank, chunk, kbps) {
			return 0, 0, false
		}
		_, size := w.entry(v, chunk, b)
		return warmPos(w.coldTail-1-rank, chunk, b), size, true
	}
	return 0, 0, false
}

// Fit implements cache.Seed. Whole titles are sized newest first in
// closed form (videoFit); only the title where the capacity runs out is
// walked entry by entry, newest first.
func (w *warmSet) Fit(capacity int64) (uint64, int, int64) {
	rem, n := capacity, 0
	for _, r := range w.ranks {
		rank := int(r)
		v := &w.cat.Videos[rank]
		vn, vb := w.videoFit(v, rank, capacity)
		if vb <= rem {
			rem -= vb
			n += vn
			continue
		}
		order := w.coldTail - 1 - rank
		for chunk := v.NumChunks - 1; chunk >= 0; chunk-- {
			for b := len(w.cat.Bitrates) - 1; b >= 0; b-- {
				if !w.eligible(rank, chunk, w.cat.Bitrates[b]) {
					continue
				}
				_, size := w.entry(v, chunk, b)
				if size <= 0 || size > capacity {
					continue
				}
				if size > rem {
					return warmPos(order, chunk, b) + 1, n, capacity - rem
				}
				rem -= size
				n++
			}
		}
	}
	return 0, n, capacity - rem
}

// videoFit counts title v's entries whose size is in (0, capacity] and
// sums their bytes. Every chunk but the last is full length, so a rung
// contributes a count of identical full-chunk sizes plus its last chunk.
func (w *warmSet) videoFit(v *catalog.Video, rank int, capacity int64) (int, int64) {
	n, bytes := 0, int64(0)
	last := v.NumChunks - 1
	add := func(count int, size int64) {
		if count > 0 && size > 0 && size <= capacity {
			n += count
			bytes += int64(count) * size
		}
	}
	for b, kbps := range w.cat.Bitrates {
		full := 0 // eligible chunks before the last
		switch {
		case w.eligible(rank, startupChunks, kbps): // every chunk
			full = last
		case kbps == w.startRung:
			full = min(startupChunks, last)
		}
		add(full, catalog.ChunkSizeBytes(kbps, w.cat.ChunkDuration))
		if w.eligible(rank, last, kbps) {
			_, size := w.entry(v, last, b)
			add(1, size)
		}
	}
	return n, bytes
}
