package session

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/stats"
	"vidperf/internal/workload"
)

// warmedPoP builds every slot of one PoP as its own slot fleet and warms
// it, the way each shard of a run builds and warms its one server. The
// result is indexed by slot.
func warmedPoP(cfg cdn.FleetConfig, seed uint64, cat *catalog.Catalog, pop int) []*cdn.Server {
	cfg = cfg.WithDefaults()
	servers := make([]*cdn.Server, cfg.ServersPerPoP)
	for slot := range servers {
		fleet := cdn.NewSlotFleet(cfg, seed, pop, slot)
		WarmPoP(fleet, cat, pop)
		servers[slot] = fleet.PoPServers(pop)[slot]
	}
	return servers
}

func TestWarmFleetPopulatesCaches(t *testing.T) {
	cfg := cdn.FleetConfig{NumPoPs: 2, ServersPerPoP: 3}
	cat := catalog.New(catalog.Config{NumVideos: 200}, stats.NewRand(1))
	for pop := 0; pop < 2; pop++ {
		servers := warmedPoP(cfg, 1, cat, pop)
		// Every server with mapped content must hold bytes.
		for _, srv := range servers {
			if srv.Cache().Disk.Size() == 0 {
				t.Errorf("server %d not warmed", srv.ID)
			}
		}
		// The most popular video's mid-ladder chunk must be resident on
		// its mapped server; a cold-tail video must not be.
		v0 := &cat.Videos[0]
		srv := servers[cdn.SlotFor(cfg, v0.ID, v0.Rank, 0)]
		if !srv.Cache().Contains(catalog.ChunkKey(v0.ID, 0, 1750)) {
			t.Errorf("pop %d: popular chunk not warmed", pop)
		}
		cold := &cat.Videos[len(cat.Videos)-1] // rank beyond the 95% cold cut
		coldSrv := servers[cdn.SlotFor(cfg, cold.ID, cold.Rank, 0)]
		if coldSrv.Cache().Contains(catalog.ChunkKey(cold.ID, 0, 1750)) {
			t.Errorf("pop %d: cold-tail chunk unexpectedly warmed", pop)
		}
	}
}

func TestWarmFleetTopQuartileGetsAllRungs(t *testing.T) {
	cfg := cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 2}
	cat := catalog.New(catalog.Config{NumVideos: 100}, stats.NewRand(2))
	servers := warmedPoP(cfg, 2, cat, 0)

	v0 := &cat.Videos[0] // top quartile: all rungs warmed
	srv := servers[cdn.SlotFor(cfg, v0.ID, v0.Rank, 0)]
	for _, br := range cat.Bitrates {
		if !srv.Cache().Contains(catalog.ChunkKey(v0.ID, 1, br)) {
			t.Errorf("top video missing rung %d", br)
		}
	}
	// A mid-catalog (below quartile, above cold cut) video: low rungs are
	// cold except the startup rung on early chunks.
	vMid := &cat.Videos[60]
	srvMid := servers[cdn.SlotFor(cfg, vMid.ID, vMid.Rank, 0)]
	if srvMid.Cache().Contains(catalog.ChunkKey(vMid.ID, 5, 235)) {
		t.Error("mid video's 235 kbps rung should be cold")
	}
	if !srvMid.Cache().Contains(catalog.ChunkKey(vMid.ID, 0, 375)) {
		t.Error("mid video's startup rung should be warmed for chunk 0")
	}
	if !srvMid.Cache().Contains(catalog.ChunkKey(vMid.ID, 5, 1750)) {
		t.Error("mid video's 1750 kbps rung should be warmed")
	}
}

func TestWarmFleetPartitionedSpreadsPopular(t *testing.T) {
	cfg := cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 4, PartitionTopRanks: 10}
	cat := catalog.New(catalog.Config{NumVideos: 100}, stats.NewRand(3))

	// Partitioned top titles must be resident on every server of the PoP.
	key := catalog.ChunkKey(cat.Videos[0].ID, 0, 1750)
	for _, srv := range warmedPoP(cfg, 3, cat, 0) {
		if !srv.Cache().Contains(key) {
			t.Errorf("server %d missing partitioned popular chunk", srv.ID)
		}
	}
}

func TestColdStartRaisesMissRate(t *testing.T) {
	base := workload.Scenario{
		Seed: 5, NumSessions: 800, NumPrefixes: 200,
		Catalog: catalog.Config{NumVideos: 800},
	}
	warm := mustRun(t, base)
	cold := base
	cold.ColdStart = true
	coldDS := mustRun(t, cold)

	missRate := func(ds *core.Dataset) float64 {
		miss := 0
		for i := range ds.Chunks {
			if !ds.Chunks[i].CacheHit {
				miss++
			}
		}
		return float64(miss) / float64(len(ds.Chunks))
	}
	w, c := missRate(warm), missRate(coldDS)
	if c < 3*w {
		t.Errorf("cold start miss rate %.3f not ≫ warm %.3f", c, w)
	}
	if w > 0.25 {
		t.Errorf("warm miss rate %.3f too high", w)
	}
}

// warmEntry is one warm insert: a chunk key and its size.
type warmEntry struct {
	key  uint64
	size int64
}

// refWarmWalk is the warm insert sequence as the eager warm-up walked
// it, kept as the naive reference for warmSet: every title from the
// least popular warmed rank to rank 0, every chunk, every eligible rung,
// appended to the slot (or, for partitioned top ranks, every slot) that
// serves it.
func refWarmWalk(cat *catalog.Catalog, cfg cdn.FleetConfig) [][]warmEntry {
	out := make([][]warmEntry, cfg.ServersPerPoP)
	startRung := cat.Bitrates[0]
	if len(cat.Bitrates) > 1 {
		startRung = cat.Bitrates[1]
	}
	topQuartile := len(cat.Videos) / 4
	coldTail := len(cat.Videos) * 95 / 100
	for rank := coldTail - 1; rank >= 0; rank-- {
		v := &cat.Videos[rank]
		partitioned := cfg.PartitionTopRanks > 0 && rank < cfg.PartitionTopRanks
		for c := 0; c < v.NumChunks; c++ {
			dur := cat.ChunkDurationSec(v, c)
			for _, br := range cat.Bitrates {
				if br < 750 && rank >= topQuartile && !(c < 3 && br == startRung) {
					continue
				}
				e := warmEntry{catalog.ChunkKey(v.ID, c, br), catalog.ChunkSizeBytes(br, dur)}
				if partitioned {
					for slot := range out {
						out[slot] = append(out[slot], e)
					}
				} else {
					slot := cdn.SlotFor(cfg, v.ID, rank, 0)
					out[slot] = append(out[slot], e)
				}
			}
		}
	}
	return out
}

// warmWorlds are the catalog and fleet shapes the warm-set tests cover:
// the default ladder, partitioned top ranks, and a short ladder whose
// startup rung (750 kbps) is warm on every chunk.
func warmWorlds() []struct {
	name string
	cat  *catalog.Catalog
	cfg  cdn.FleetConfig
} {
	mk := func(n int, ladder []int) *catalog.Catalog {
		return catalog.New(catalog.Config{NumVideos: n, Bitrates: ladder}, stats.NewRand(uint64(n)))
	}
	return []struct {
		name string
		cat  *catalog.Catalog
		cfg  cdn.FleetConfig
	}{
		{"default", mk(240, nil), cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 3}.WithDefaults()},
		{"partitioned", mk(200, nil), cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 4, PartitionTopRanks: 12}.WithDefaults()},
		{"short-ladder", mk(160, []int{400, 750, 3000}), cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 2}.WithDefaults()},
	}
}

// seedEntries enumerates a warm set through Next, with positions.
func seedEntries(ws *warmSet) (pos []uint64, entries []warmEntry) {
	for p := uint64(0); ; {
		at, key, size, ok := ws.Next(p)
		if !ok {
			return pos, entries
		}
		if len(pos) > 0 && at <= pos[len(pos)-1] {
			panic("warmSet positions do not increase")
		}
		pos = append(pos, at)
		entries = append(entries, warmEntry{key, size})
		p = at + 1
	}
}

// TestWarmSetNextMatchesReferenceWalk: Next enumerates exactly the eager
// warm-up's per-slot insert sequence.
func TestWarmSetNextMatchesReferenceWalk(t *testing.T) {
	for _, w := range warmWorlds() {
		ref := refWarmWalk(w.cat, w.cfg)
		for slot := range ref {
			_, got := seedEntries(newWarmSet(w.cat, w.cfg, slot))
			if len(got) == 0 || !slices.Equal(got, ref[slot]) {
				t.Errorf("%s slot %d: Next gives %d entries, reference walk %d (or a different order)",
					w.name, slot, len(got), len(ref[slot]))
			}
		}
	}
}

// TestWarmSetFind: Find agrees with Next on every entry and rejects
// every key that is not one.
func TestWarmSetFind(t *testing.T) {
	for _, w := range warmWorlds() {
		cat := w.cat
		for slot := 0; slot < w.cfg.ServersPerPoP; slot++ {
			ws := newWarmSet(cat, w.cfg, slot)
			pos, entries := seedEntries(ws)
			for i, e := range entries {
				p, size, ok := ws.Find(e.key)
				if !ok || p != pos[i] || size != e.size {
					t.Fatalf("%s slot %d: Find(%#x) = (%d, %d, %v), Next gave (%d, %d)",
						w.name, slot, e.key, p, size, ok, pos[i], e.size)
				}
			}
			reject := func(what string, key uint64) {
				t.Helper()
				if _, _, ok := ws.Find(key); ok {
					t.Errorf("%s slot %d: Find accepted %s (%#x)", w.name, slot, what, key)
				}
			}
			low, top := cat.Bitrates[0], cat.Bitrates[len(cat.Bitrates)-1]
			for rank := ws.coldTail; rank < len(cat.Videos); rank++ {
				reject("a cold-tail title", catalog.ChunkKey(cat.Videos[rank].ID, 0, top))
			}
			ref := newRefWarmSet(cat, w.cfg, slot)
			for rank := 0; rank < ws.coldTail; rank++ {
				v := &cat.Videos[rank]
				if !ref.ownsByHash(rank) {
					reject("another slot's title", catalog.ChunkKey(v.ID, 0, top))
					continue
				}
				reject("a chunk past the title's end", catalog.ChunkKey(v.ID, v.NumChunks, top))
				reject("an unknown rung code", catalog.ChunkKey(v.ID, 0, top+10))
				if rank >= ws.topQuartile && low != ws.startRung {
					reject("an ineligible rung", catalog.ChunkKey(v.ID, 0, low))
				}
				if rank >= ws.topQuartile && ws.startRung < 750 {
					reject("the startup rung past chunk 2", catalog.ChunkKey(v.ID, 3, ws.startRung))
				}
			}
			reject("a title beyond the catalog", catalog.ChunkKey(len(cat.Videos)+7, 0, top))
		}
	}
}

// TestWarmSetFit: Fit equals a brute-force newest-first sum over Next at
// capacities from one byte to more than everything, including ones that
// cut a title mid-way and ones smaller than the largest chunks.
func TestWarmSetFit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, w := range warmWorlds() {
		for slot := 0; slot < w.cfg.ServersPerPoP; slot++ {
			ws := newWarmSet(w.cat, w.cfg, slot)
			pos, entries := seedEntries(ws)
			var total int64
			for _, e := range entries {
				total += e.size
			}
			caps := []int64{1, 100_000, 1 << 20, 2 << 20, total / 2, total - 1, total, total + 1}
			for i := 0; i < 40; i++ {
				caps = append(caps, 1+r.Int63n(total+1))
			}
			for _, capacity := range caps {
				wantStart, wantN, wantBytes := uint64(0), 0, int64(0)
				for i := len(entries) - 1; i >= 0; i-- {
					size := entries[i].size
					if size <= 0 || size > capacity {
						continue
					}
					if wantBytes+size > capacity {
						wantStart = pos[i] + 1
						break
					}
					wantBytes += size
					wantN++
				}
				start, n, bytes := ws.Fit(capacity)
				if start != wantStart || n != wantN || bytes != wantBytes {
					t.Fatalf("%s slot %d: Fit(%d) = (%d, %d, %d), brute force (%d, %d, %d)",
						w.name, slot, capacity, start, n, bytes, wantStart, wantN, wantBytes)
				}
			}
		}
	}
}

// TestSeededWarmupMatchesEagerReplay: a server warmed through the seed
// answers a random request stream exactly like one warmed by replaying
// the reference walk through Put, at capacities that cut the warm set
// mid-title.
func TestSeededWarmupMatchesEagerReplay(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, w := range warmWorlds() {
		ref := refWarmWalk(w.cat, w.cfg)
		for slot, entries := range ref {
			var total int64
			for _, e := range entries {
				total += e.size
			}
			for _, capacity := range []int64{3 << 20, total / 3, total + 1} {
				eager, seeded := cache.NewLRU(capacity), cache.NewLRU(capacity)
				for _, e := range entries {
					eager.Put(e.key, e.size)
				}
				seeded.SetSeed(newWarmSet(w.cat, w.cfg, slot))
				for op := 0; op < 3000; op++ {
					e := entries[r.Intn(len(entries))]
					if r.Intn(4) == 0 {
						e.key ^= 1 << 40 // a key outside the warm set
					}
					if eager.Get(e.key) != seeded.Get(e.key) {
						t.Fatalf("%s slot %d cap %d op %d: Get disagrees", w.name, slot, capacity, op)
					}
					if op%3 == 0 {
						eager.Put(e.key, e.size)
						seeded.Put(e.key, e.size)
					}
					if eager.Len() != seeded.Len() || eager.Size() != seeded.Size() {
						t.Fatalf("%s slot %d cap %d op %d: len %d/%d size %d/%d", w.name, slot, capacity, op,
							eager.Len(), seeded.Len(), eager.Size(), seeded.Size())
					}
				}
			}
		}
	}
}

// refWarmSet is the warm set as it was before the ownership index:
// every walk visits every rank below the cold tail and asks ownsByHash,
// one cdn.SlotFor hash per rank. It keeps warmSet's warming policy
// (eligible, entry, videoFit) and is the oracle for its Next, Find and
// Fit.
type refWarmSet struct {
	*warmSet
	cfg  cdn.FleetConfig
	slot int
}

func newRefWarmSet(cat *catalog.Catalog, cfg cdn.FleetConfig, slot int) *refWarmSet {
	return &refWarmSet{warmSet: newWarmSet(cat, cfg, slot), cfg: cfg, slot: slot}
}

// ownsByHash reports whether the title at rank is warmed on this slot.
func (w *refWarmSet) ownsByHash(rank int) bool {
	if w.cfg.PartitionTopRanks > 0 && rank < w.cfg.PartitionTopRanks {
		return true
	}
	return cdn.SlotFor(w.cfg, w.cat.Videos[rank].ID, rank, 0) == w.slot
}

func (w *refWarmSet) Next(pos uint64) (uint64, uint64, int64, bool) {
	order := int(pos >> warmOrderShift)
	chunk := int(pos >> warmChunkShift & warmChunkMask)
	b := int(pos & warmRungMask)
	for ; order < w.coldTail; order, chunk, b = order+1, 0, 0 {
		rank := w.coldTail - 1 - order
		if !w.ownsByHash(rank) {
			continue
		}
		v := &w.cat.Videos[rank]
		for ; chunk < v.NumChunks; chunk, b = chunk+1, 0 {
			for ; b < len(w.cat.Bitrates); b++ {
				if w.eligible(rank, chunk, w.cat.Bitrates[b]) {
					key, size := w.entry(v, chunk, b)
					return warmPos(order, chunk, b), key, size, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

func (w *refWarmSet) Find(key uint64) (uint64, int64, bool) {
	id := key >> 32
	chunk := int(key >> warmChunkShift & warmChunkMask)
	code := int(key & warmRungMask)
	if id >= uint64(w.coldTail) {
		return 0, 0, false
	}
	v := &w.cat.Videos[id]
	rank := v.Rank
	if v.ID != int(id) || rank >= w.coldTail || chunk >= v.NumChunks || !w.ownsByHash(rank) {
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

func (w *refWarmSet) Fit(capacity int64) (uint64, int, int64) {
	rem, n := capacity, 0
	for rank := 0; rank < w.coldTail; rank++ {
		if !w.ownsByHash(rank) {
			continue
		}
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

// TestWarmSetMatchesOwnsOracle: with the ownership index, Next, Find
// and Fit answer exactly as the per-rank owns walk, at one, three and
// fourteen servers per PoP and with no partitioned ranks, some, and
// more than the cold tail. Next is also asked from positions inside and
// between titles, and Find about every title's keys on every slot.
func TestWarmSetMatchesOwnsOracle(t *testing.T) {
	cat := catalog.New(catalog.Config{NumVideos: 200}, stats.NewRand(9))
	coldTail := coldTailOf(cat)
	for _, servers := range []int{1, 3, 14} {
		for _, top := range []int{0, 50, coldTail, coldTail + 40} {
			cfg := cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: servers, PartitionTopRanks: top}.WithDefaults()
			total := 0
			for slot := 0; slot < servers; slot++ {
				ws, ref := newWarmSet(cat, cfg, slot), newRefWarmSet(cat, cfg, slot)
				name := fmt.Sprintf("servers=%d top=%d slot=%d", servers, top, slot)
				var pos []uint64
				var bytes int64
				for p := uint64(0); ; {
					at, key, size, ok := ws.Next(p)
					rat, rkey, rsize, rok := ref.Next(p)
					if at != rat || key != rkey || size != rsize || ok != rok {
						t.Fatalf("%s: Next(%#x) = (%#x, %#x, %d, %v), oracle (%#x, %#x, %d, %v)",
							name, p, at, key, size, ok, rat, rkey, rsize, rok)
					}
					if !ok {
						break
					}
					pos = append(pos, at)
					bytes += size
					p = at + 1
				}
				total += len(pos)
				// Positions the walk never stops at: a title's end, a
				// rank another slot owns, past the cold tail.
				for order := uint64(0); order <= uint64(coldTail)+1; order++ {
					for _, p := range []uint64{order << warmOrderShift, order<<warmOrderShift | 1<<warmChunkShift - 1, order<<warmOrderShift | warmChunkMask<<warmChunkShift} {
						at, key, size, ok := ws.Next(p)
						rat, rkey, rsize, rok := ref.Next(p)
						if at != rat || key != rkey || size != rsize || ok != rok {
							t.Fatalf("%s: Next(%#x) = (%#x, %#x, %d, %v), oracle (%#x, %#x, %d, %v)",
								name, p, at, key, size, ok, rat, rkey, rsize, rok)
						}
					}
				}
				for rank := range cat.Videos {
					v := &cat.Videos[rank]
					for _, chunk := range []int{0, 3, v.NumChunks - 1, v.NumChunks} {
						for _, kbps := range cat.Bitrates {
							key := catalog.ChunkKey(v.ID, chunk, kbps)
							p, size, ok := ws.Find(key)
							rp, rsize, rok := ref.Find(key)
							if p != rp || size != rsize || ok != rok {
								t.Fatalf("%s: Find(%#x) = (%#x, %d, %v), oracle (%#x, %d, %v)", name, key, p, size, ok, rp, rsize, rok)
							}
						}
					}
				}
				for _, capacity := range []int64{1, 1 << 20, bytes / 3, bytes - 1, bytes, bytes + 1} {
					start, n, b := ws.Fit(capacity)
					rstart, rn, rb := ref.Fit(capacity)
					if start != rstart || n != rn || b != rb {
						t.Fatalf("%s: Fit(%d) = (%#x, %d, %d), oracle (%#x, %d, %d)", name, capacity, start, n, b, rstart, rn, rb)
					}
				}
			}
			if total == 0 {
				t.Errorf("servers=%d top=%d: no slot warms anything", servers, top)
			}
		}
	}
}

// TestWarmPoPConcurrentSharesIndex: shards warming one catalog at once
// build its ownership index once and share it, and each server ends as
// a warm-up on its own catalog leaves it. Run under -race, this is the
// check that the index is only read once built.
func TestWarmPoPConcurrentSharesIndex(t *testing.T) {
	newCat := func() *catalog.Catalog {
		return catalog.New(catalog.Config{NumVideos: 400}, stats.NewRand(11))
	}
	cfg := cdn.FleetConfig{NumPoPs: 2, ServersPerPoP: 14, PartitionTopRanks: 20}
	shared := newCat()
	type shard struct{ pop, slot int }
	var shards []shard
	for pop := 0; pop < cfg.NumPoPs; pop++ {
		for slot := 0; slot < cfg.ServersPerPoP; slot++ {
			shards = append(shards, shard{pop, slot})
		}
	}
	got := make([]*cdn.Server, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fleet := cdn.NewSlotFleet(cfg, 4, sh.pop, sh.slot)
			WarmPoP(fleet, shared, sh.pop)
			srv := fleet.PoPServers(sh.pop)[sh.slot]
			for rank := 0; rank < 60; rank++ {
				srv.Cache().Lookup(catalog.ChunkKey(shared.Videos[rank].ID, 1, 1750), 1)
			}
			got[i] = srv
		}()
	}
	wg.Wait()
	eff := cfg.WithDefaults()
	if ownershipOf(shared, eff) != ownershipOf(shared, eff) {
		t.Fatal("the catalog's ownership index was rebuilt")
	}
	if allocs := testing.AllocsPerRun(20, func() { ownershipOf(shared, eff) }); allocs != 0 {
		t.Errorf("finding the built ownership index costs %v allocations, want 0", allocs)
	}
	for i, sh := range shards {
		fleet := cdn.NewSlotFleet(cfg, 4, sh.pop, sh.slot)
		own := newCat()
		WarmPoP(fleet, own, sh.pop)
		want := fleet.PoPServers(sh.pop)[sh.slot].Cache()
		for rank := 0; rank < 60; rank++ {
			want.Lookup(catalog.ChunkKey(own.Videos[rank].ID, 1, 1750), 1)
		}
		have := got[i].Cache()
		for _, lv := range [][2]cache.Policy{{have.RAM, want.RAM}, {have.Disk, want.Disk}} {
			if lv[0].Len() != lv[1].Len() || lv[0].Size() != lv[1].Size() {
				t.Errorf("pop %d slot %d: len %d size %d, alone len %d size %d", sh.pop, sh.slot,
					lv[0].Len(), lv[0].Size(), lv[1].Len(), lv[1].Size())
			}
		}
	}
}

// warmCost measures WarmPoP on fresh single-slot fleets over a catalog
// of n titles: heap objects per call (AllocsPerRun) and bytes of one
// call.
func warmCost(n int) (allocs float64, bytes uint64) {
	cat := catalog.New(catalog.Config{NumVideos: n}, stats.NewRand(1))
	cfg := cdn.FleetConfig{NumPoPs: 2, ServersPerPoP: 4}
	const runs = 5
	fleets := make([]*cdn.Fleet, runs+2)
	for i := range fleets {
		fleets[i] = cdn.NewSlotFleet(cfg, 1, 1, 2)
	}
	i := 0
	allocs = testing.AllocsPerRun(runs, func() {
		WarmPoP(fleets[i], cat, 1)
		i++
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	WarmPoP(fleets[i], cat, 1)
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

// TestWarmPoPCostIndependentOfCatalog: a seeded warm-up builds no
// per-entry state, so its allocations do not grow with the catalog. An
// eager fill of the 8000-title catalog would allocate megabytes here.
func TestWarmPoPCostIndependentOfCatalog(t *testing.T) {
	smallAllocs, smallBytes := warmCost(500)
	bigAllocs, bigBytes := warmCost(8000)
	t.Logf("WarmPoP: 500 titles %.0f allocs %d B; 8000 titles %.0f allocs %d B", smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs > smallAllocs || bigBytes > 4096 {
		t.Fatalf("WarmPoP allocations grow with the catalog: 500 titles %.0f allocs %d B, 8000 titles %.0f allocs %d B",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}

// TestWarmPoPReplaysWithoutSeed: non-LRU policies, and an LRU that
// already holds content, are warmed by replaying the warm sequence
// through Put, and end exactly where a replay of the reference walk
// does.
func TestWarmPoPReplaysWithoutSeed(t *testing.T) {
	cat := catalog.New(catalog.Config{NumVideos: 200}, stats.NewRand(4))
	for _, policy := range []string{"gdsf", "lru"} {
		cfg := cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 2, Server: cdn.Config{Policy: policy, RAMBytes: 8 << 20}}
		fleet := cdn.NewSlotFleet(cfg, 1, 0, 1)
		ml := fleet.PoPServers(0)[1].Cache()
		if policy == "lru" {
			ml.Disk.Put(1, 1) // a non-empty level takes no seed
			ml.RAM.Put(1, 1)
		}
		WarmPoP(fleet, cat, 0)

		ram, _ := cache.NewPolicy(policy, 8<<20)
		disk, _ := cache.NewPolicy(policy, cdn.DiskBytes)
		if policy == "lru" {
			disk.Put(1, 1)
			ram.Put(1, 1)
		}
		for _, e := range refWarmWalk(cat, fleet.Config())[1] {
			disk.Put(e.key, e.size)
			ram.Put(e.key, e.size)
		}
		for _, lv := range []struct {
			name      string
			got, want cache.Policy
		}{{"disk", ml.Disk, disk}, {"ram", ml.RAM, ram}} {
			if lv.got.Len() == 0 || lv.got.Len() != lv.want.Len() || lv.got.Size() != lv.want.Size() {
				t.Errorf("%s %s: len=%d size=%d, replay len=%d size=%d", policy, lv.name,
					lv.got.Len(), lv.got.Size(), lv.want.Len(), lv.want.Size())
			}
		}
	}
}
