package session

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/stats"
	"vidperf/internal/workload"
)

func TestWarmFleetPopulatesCaches(t *testing.T) {
	fleet := cdn.NewFleet(cdn.FleetConfig{NumPoPs: 2, ServersPerPoP: 3}, 1)
	cat := catalog.New(catalog.Config{NumVideos: 200, DurationMedian: 60}, stats.NewRand(1))
	WarmFleet(fleet, cat)

	// Every server with mapped content must hold bytes.
	warmed := 0
	for _, srv := range fleet.Servers() {
		if srv.Cache().Disk.Size() > 0 {
			warmed++
		}
	}
	if warmed != fleet.NumServers() {
		t.Errorf("only %d/%d servers warmed", warmed, fleet.NumServers())
	}

	// The most popular video's mid-ladder chunk must be resident on its
	// mapped server in every PoP; a cold-tail video must not be.
	for pop := 0; pop < 2; pop++ {
		v0 := &cat.Videos[0]
		srv := fleet.ServerFor(pop, v0.ID, v0.Rank, 0)
		key := catalog.ChunkKey(v0.ID, 0, 1750)
		if !srv.Cache().Contains(key) {
			t.Errorf("pop %d: popular chunk not warmed", pop)
		}
		cold := &cat.Videos[len(cat.Videos)-1] // rank beyond the 95% cold cut
		coldSrv := fleet.ServerFor(pop, cold.ID, cold.Rank, 0)
		coldKey := catalog.ChunkKey(cold.ID, 0, 1750)
		if coldSrv.Cache().Contains(coldKey) {
			t.Errorf("pop %d: cold-tail chunk unexpectedly warmed", pop)
		}
	}
}

func TestWarmFleetTopQuartileGetsAllRungs(t *testing.T) {
	fleet := cdn.NewFleet(cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 2}, 2)
	cat := catalog.New(catalog.Config{NumVideos: 100, DurationMedian: 60}, stats.NewRand(2))
	WarmFleet(fleet, cat)

	v0 := &cat.Videos[0] // top quartile: all rungs warmed
	srv := fleet.ServerFor(0, v0.ID, v0.Rank, 0)
	for _, br := range cat.Bitrates {
		if !srv.Cache().Contains(catalog.ChunkKey(v0.ID, 1, br)) {
			t.Errorf("top video missing rung %d", br)
		}
	}
	// A mid-catalog (below quartile, above cold cut) video: low rungs are
	// cold except the startup rung on early chunks.
	vMid := &cat.Videos[60]
	srvMid := fleet.ServerFor(0, vMid.ID, vMid.Rank, 0)
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
	fleet := cdn.NewFleet(cdn.FleetConfig{
		NumPoPs: 1, ServersPerPoP: 4, PartitionTopRanks: 10,
	}, 3)
	cat := catalog.New(catalog.Config{NumVideos: 100, DurationMedian: 60}, stats.NewRand(3))
	WarmFleet(fleet, cat)

	// Partitioned top titles must be resident on every server of the PoP.
	key := catalog.ChunkKey(cat.Videos[0].ID, 0, 1750)
	for _, srv := range fleet.PoPServers(0) {
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
		return catalog.New(catalog.Config{NumVideos: n, DurationMedian: 60, Bitrates: ladder}, stats.NewRand(uint64(n)))
	}
	return []struct {
		name string
		cat  *catalog.Catalog
		cfg  cdn.FleetConfig
	}{
		{"default", mk(240, nil), cdn.NewFleet(cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 3}, 1).Config()},
		{"partitioned", mk(200, nil), cdn.NewFleet(cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 4, PartitionTopRanks: 12}, 1).Config()},
		{"short-ladder", mk(160, []int{400, 750, 3000}), cdn.NewFleet(cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 2}, 1).Config()},
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
			for rank := 0; rank < ws.coldTail; rank++ {
				v := &cat.Videos[rank]
				if !ws.owns(rank) {
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
	cat := catalog.New(catalog.Config{NumVideos: 200, DurationMedian: 60}, stats.NewRand(4))
	for _, policy := range []string{"gdsf", "lru"} {
		cfg := cdn.FleetConfig{NumPoPs: 1, ServersPerPoP: 2, Server: cdn.Config{Policy: policy, RAMBytes: 8 << 20, DiskBytes: 64 << 20}}
		fleet := cdn.NewSlotFleet(cfg, 1, 0, 1)
		ml := fleet.PoPServers(0)[1].Cache()
		if policy == "lru" {
			ml.Disk.Put(1, 1) // a non-empty level takes no seed
			ml.RAM.Put(1, 1)
		}
		WarmPoP(fleet, cat, 0)

		ram, _ := cache.NewPolicy(policy, 8<<20)
		disk, _ := cache.NewPolicy(policy, 64<<20)
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
