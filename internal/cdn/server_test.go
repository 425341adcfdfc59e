package cdn

import (
	"math"
	"testing"

	"vidperf/internal/backend"
	"vidperf/internal/cache"
	"vidperf/internal/sim"
	"vidperf/internal/stats"
)

func newTestServer(cfg Config) *Server {
	r := stats.NewRand(42)
	be := backend.New(r.Split())
	return NewServer(0, 0, cfg, be, r.Split())
}

// clientFunc adapts a closure to Client.
type clientFunc func(ServeResult)

func (f clientFunc) Served(res ServeResult) { f(res) }

// serveSync runs one request to completion on a fresh engine and returns
// the result plus the engine time at first byte.
func serveSync(s *Server, req Request) (ServeResult, float64) {
	var eng sim.Engine
	var out ServeResult
	var at float64
	s.Serve(&eng, req, clientFunc(func(res ServeResult) { out = res; at = eng.Now() }))
	eng.Run()
	return out, at
}

func TestMissThenHitLatencyGap(t *testing.T) {
	s := newTestServer(Config{})
	req := Request{Key: 1, SizeBytes: 500000, VideoID: 1, ChunkIndex: 0}

	miss, missAt := serveSync(s, req)
	if miss.Level != cache.LevelMiss {
		t.Fatalf("first serve level = %v, want miss", miss.Level)
	}
	if miss.DBEms <= 0 {
		t.Error("miss without backend latency")
	}
	if !miss.RetryTimer {
		t.Error("miss should trip the open-retry timer")
	}
	if missAt < miss.ServerLatencyMS()-1e-6 {
		t.Errorf("first byte at %v before server latency %v elapsed", missAt, miss.ServerLatencyMS())
	}

	hit, _ := serveSync(s, req)
	if hit.Level != cache.LevelRAM {
		t.Fatalf("second serve level = %v, want ram", hit.Level)
	}
	if hit.DBEms != 0 {
		t.Error("hit has backend latency")
	}
	// The paper's calibration: miss latency ~40x hit latency in the median.
	if miss.ServerLatencyMS() < 5*hit.ServerLatencyMS() {
		t.Errorf("miss %v not ≫ hit %v", miss.ServerLatencyMS(), hit.ServerLatencyMS())
	}
}

func TestRetryTimerSeparatesDiskFromRAM(t *testing.T) {
	// Fill RAM past capacity so an early object is evicted to disk,
	// then observe the retry gap on the disk hit. The §4.1 take-away:
	// lowering the timer from 10 ms to 2 ms cuts a disk hit's Dread by
	// exactly the 8 ms difference.
	dread := map[float64]float64{}
	for _, retryMS := range []float64{10, 2} {
		cfg := Config{RAMBytes: 1 << 20, DiskBytes: 1 << 30, OpenRetryMS: retryMS}
		s := newTestServer(cfg)
		reqA := Request{Key: 100, SizeBytes: 600000}
		serveSync(s, reqA) // miss -> cached (RAM+disk)
		serveSync(s, Request{Key: 101, SizeBytes: 600000})
		serveSync(s, Request{Key: 102, SizeBytes: 600000}) // evicts key 100 from RAM

		res, _ := serveSync(s, reqA)
		if res.Level != cache.LevelDisk {
			t.Fatalf("retry %v ms: level = %v, want disk", retryMS, res.Level)
		}
		if !res.RetryTimer {
			t.Errorf("retry %v ms: disk read should trip the retry timer", retryMS)
		}
		if res.DreadMS < retryMS {
			t.Errorf("retry %v ms: disk Dread %v below the retry floor", retryMS, res.DreadMS)
		}
		if res.DBEms != 0 {
			t.Errorf("retry %v ms: disk hit charged backend latency", retryMS)
		}
		dread[retryMS] = res.DreadMS
	}
	if got, want := dread[2], dread[10]-8; math.Abs(got-want) > 1e-9 {
		t.Errorf("2 ms timer disk Dread %v, want 10 ms timer's %v minus 8 = %v", got, dread[10], want)
	}
}

func TestHitStatsDistribution(t *testing.T) {
	s := newTestServer(Config{})
	var hitLat, missLat []float64
	for k := uint64(0); k < 300; k++ {
		req := Request{Key: k, SizeBytes: 400000}
		m, _ := serveSync(s, req)
		missLat = append(missLat, m.ServerLatencyMS())
		h, _ := serveSync(s, req)
		hitLat = append(hitLat, h.ServerLatencyMS())
	}
	medHit, medMiss := stats.Median(hitLat), stats.Median(missLat)
	// Paper: median 2 ms (hit) vs 80 ms (miss). Accept generous bands.
	if medHit > 6 {
		t.Errorf("median hit latency %.2f ms, want ~2", medHit)
	}
	if medMiss < 40 || medMiss > 160 {
		t.Errorf("median miss latency %.2f ms, want ~80", medMiss)
	}
	if medMiss/medHit < 10 {
		t.Errorf("miss/hit ratio %.1f, want order-of-magnitude", medMiss/medHit)
	}
}

func TestFIFOQueueWait(t *testing.T) {
	// One worker, two simultaneous requests: the second must wait for the
	// first's local work and record a larger Dwait.
	cfg := Config{Workers: 1}
	s := newTestServer(cfg)
	var eng sim.Engine
	var first, second ServeResult
	gotFirst := false
	s.Serve(&eng, Request{Key: 1, SizeBytes: 400000}, clientFunc(func(r ServeResult) { first = r; gotFirst = true }))
	s.Serve(&eng, Request{Key: 2, SizeBytes: 400000}, clientFunc(func(r ServeResult) { second = r }))
	eng.Run()
	if !gotFirst {
		t.Fatal("first request never finished")
	}
	if second.DwaitMS <= first.DwaitMS {
		t.Errorf("queued request Dwait %v not above first %v", second.DwaitMS, first.DwaitMS)
	}
}

// TestDrainedQueueHoldsNoClient: once a backlog has drained, neither the
// FIFO's backing array nor the recycled request handlers keep a client
// (in the simulator, a whole session) reachable.
func TestDrainedQueueHoldsNoClient(t *testing.T) {
	s := newTestServer(Config{Workers: 1})
	var eng sim.Engine
	served := 0
	for k := uint64(1); k <= 6; k++ {
		s.Serve(&eng, Request{Key: k, SizeBytes: 400000}, clientFunc(func(ServeResult) { served++ }))
	}
	if s.head != 0 || len(s.queue) != 5 {
		t.Fatalf("backlog head=%d len=%d, want 0 and 5", s.head, len(s.queue))
	}
	eng.Run()
	if served != 6 {
		t.Fatalf("served %d requests, want 6", served)
	}
	if len(s.queue) != 0 {
		t.Fatalf("drained queue has %d entries", len(s.queue))
	}
	for i, f := range s.queue[:cap(s.queue)] {
		if f != nil {
			t.Fatalf("drained queue slot %d still holds a request", i)
		}
	}
	for i, f := range s.requests {
		if f.client != nil || f.req.Next != nil {
			t.Fatalf("recycled request %d still holds its client or request", i)
		}
	}
}

// TestServeAllocationFree: serving a cache hit, once the server's free
// lists and the engine's heap are warm, allocates nothing.
func TestServeAllocationFree(t *testing.T) {
	s := newTestServer(Config{})
	var eng sim.Engine
	var c countingClient
	req := Request{Key: 9, SizeBytes: 400000}
	s.Serve(&eng, req, &c)
	eng.Run()
	allocs := testing.AllocsPerRun(200, func() {
		s.Serve(&eng, req, &c)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("Serve allocates %v objects per hit, want 0", allocs)
	}
	if c != 202 {
		t.Fatalf("client saw %d results, want 202", c)
	}
}

// countingClient is a long-lived Client that counts its results.
type countingClient int

func (c *countingClient) Served(ServeResult) { *c++ }

func TestPinFirstChunks(t *testing.T) {
	s := newTestServer(Config{PinFirstChunks: true})
	res, _ := serveSync(s, Request{Key: 7, SizeBytes: 400000, ChunkIndex: 0})
	if !res.Pinned || res.Level != cache.LevelRAM || res.DBEms != 0 {
		t.Errorf("pinned first chunk not served from memory: %+v", res)
	}
	// Non-first chunks still miss.
	res2, _ := serveSync(s, Request{Key: 8, SizeBytes: 400000, ChunkIndex: 1})
	if res2.Pinned || res2.Level != cache.LevelMiss {
		t.Errorf("chunk 1 should miss: %+v", res2)
	}
}

func TestPrefetchWarmsNextChunks(t *testing.T) {
	s := newTestServer(Config{Prefetch: 2})
	req := Request{
		Key: 1, SizeBytes: 400000, ChunkIndex: 0,
		Next: []NextChunk{{Key: 2, SizeBytes: 400000}, {Key: 3, SizeBytes: 400000}, {Key: 4, SizeBytes: 400000}},
	}
	serveSync(s, req) // miss triggers prefetch of keys 2 and 3 (not 4)
	if !s.Cache().Contains(2) || !s.Cache().Contains(3) {
		t.Error("prefetch did not warm next chunks")
	}
	if s.Cache().Contains(4) {
		t.Error("prefetch exceeded configured depth")
	}
	res, _ := serveSync(s, Request{Key: 2, SizeBytes: 400000, ChunkIndex: 1})
	if res.Level == cache.LevelMiss {
		t.Error("prefetched chunk still missed")
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestServer(Config{Policy: "nope"})
}

func TestFleetMapping(t *testing.T) {
	cfg := FleetConfig{NumPoPs: 3, ServersPerPoP: 4}.WithDefaults()
	// Cache-focused: same video -> same slot, regardless of session.
	if a, b := SlotFor(cfg, 77, 77, 111), SlotFor(cfg, 77, 77, 222); a != b {
		t.Errorf("cache-focused mapping not session-independent: slots %d and %d", a, b)
	}
	// Different videos spread across slots, all in range.
	slots := make(map[int]bool)
	for vid := 0; vid < 100; vid++ {
		slot := SlotFor(cfg, vid, vid, 1)
		if slot < 0 || slot >= cfg.ServersPerPoP {
			t.Fatalf("video %d mapped to slot %d, outside [0, %d)", vid, slot, cfg.ServersPerPoP)
		}
		slots[slot] = true
	}
	if len(slots) < 3 {
		t.Errorf("mapping used only %d slot(s)", len(slots))
	}
}

func TestFleetPartitioningSpreadsPopular(t *testing.T) {
	cfg := FleetConfig{NumPoPs: 1, ServersPerPoP: 8, PartitionTopRanks: 100}.WithDefaults()
	// A popular video (rank < 100) should land on many servers across
	// sessions; an unpopular one stays pinned.
	popSlots := make(map[int]bool)
	coldSlots := make(map[int]bool)
	for sess := uint64(0); sess < 200; sess++ {
		popSlots[SlotFor(cfg, 5, 5, sess)] = true
		coldSlots[SlotFor(cfg, 5000, 5000, sess)] = true
	}
	if len(popSlots) < 4 {
		t.Errorf("popular video spread over %d servers, want several", len(popSlots))
	}
	if len(coldSlots) != 1 {
		t.Errorf("unpopular video on %d servers, want 1", len(coldSlots))
	}
}

// Calibration: with RAM sized well below the hot set, a Zipf stream should
// produce the paper's layered outcome: most chunks from RAM, a meaningful
// disk share (retry timer), and a small backend miss rate.
func TestLayeredServeShares(t *testing.T) {
	cfg := Config{RAMBytes: 256 << 20, DiskBytes: 8 << 30}
	s := newTestServer(cfg)
	r := stats.NewRand(11)
	z := stats.NewZipf(3000, 0.9)
	var eng sim.Engine
	counts := map[cache.Level]int{}
	n := 8000
	for i := 0; i < n; i++ {
		key := uint64(z.Sample(r))
		req := Request{Key: key, SizeBytes: 450000}
		s.Serve(&eng, req, clientFunc(func(res ServeResult) { counts[res.Level]++ }))
		eng.Run()
	}
	ram := float64(counts[cache.LevelRAM]) / float64(n)
	disk := float64(counts[cache.LevelDisk]) / float64(n)
	miss := float64(counts[cache.LevelMiss]) / float64(n)
	if ram < 0.4 {
		t.Errorf("RAM share %.2f too low", ram)
	}
	if disk <= 0.02 {
		t.Errorf("disk share %.2f too low for the retry-timer finding", disk)
	}
	if miss > 0.40 {
		t.Errorf("miss share %.2f too high", miss)
	}
	t.Logf("shares: ram=%.2f disk=%.2f miss=%.2f", ram, disk, miss)
}
