package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"vidperf/internal/stats"
)

func testCatalog() *Catalog {
	return New(Config{NumVideos: 5000}, stats.NewRand(1))
}

func TestNewDefaults(t *testing.T) {
	c := testCatalog()
	if len(c.Videos) != 5000 {
		t.Fatalf("videos = %d", len(c.Videos))
	}
	if c.ChunkDuration != 6 {
		t.Errorf("chunk duration = %v, want 6", c.ChunkDuration)
	}
	if len(c.Bitrates) != 8 {
		t.Errorf("ladder rungs = %d, want 8", len(c.Bitrates))
	}
	for i := 1; i < len(c.Bitrates); i++ {
		if c.Bitrates[i] <= c.Bitrates[i-1] {
			t.Error("ladder not ascending")
		}
	}
}

func TestDurationsHeavyTailed(t *testing.T) {
	c := testCatalog()
	durs := make([]float64, len(c.Videos))
	for i, v := range c.Videos {
		durs[i] = v.DurationSec
		if v.DurationSec < 18 || v.DurationSec > 7200 {
			t.Fatalf("duration out of support: %v", v.DurationSec)
		}
		if v.NumChunks != int(math.Ceil(v.DurationSec/6)) {
			t.Fatalf("chunk count mismatch for %v", v)
		}
	}
	med := stats.Median(durs)
	if med < 80 || med > 180 {
		t.Errorf("median duration = %v, want ~120", med)
	}
	// Heavy tail: some videos much longer than the median (Fig. 3a spans
	// 10^1..10^4 seconds).
	if stats.Quantile(durs, 0.99) < 5*med {
		t.Errorf("p99 %v not heavy-tailed vs median %v", stats.Quantile(durs, 0.99), med)
	}
}

func TestPopularitySkewMatchesPaper(t *testing.T) {
	c := New(Config{NumVideos: 20000}, stats.NewRand(2))
	share := c.TopShare(0.10)
	// Paper §3: top 10% of videos ≈ 66% of playbacks.
	if share < 0.55 || share > 0.78 {
		t.Errorf("top-10%% share = %.3f, want ≈0.66", share)
	}
}

func TestSampleFollowsRank(t *testing.T) {
	c := testCatalog()
	r := stats.NewRand(3)
	counts := make([]int, len(c.Videos))
	for i := 0; i < 200000; i++ {
		counts[c.Sample(r).ID]++
	}
	if counts[0] <= counts[100] || counts[100] <= counts[4000] {
		t.Errorf("sampling not rank-ordered: %d %d %d", counts[0], counts[100], counts[4000])
	}
}

func TestChunkKeyUniqueness(t *testing.T) {
	seen := make(map[uint64]bool)
	bitrates := []int{235, 375, 560, 750, 1050, 1750, 2350, 3000}
	for vid := 0; vid < 50; vid++ {
		for idx := 0; idx < 40; idx++ {
			for _, br := range bitrates {
				k := ChunkKey(vid, idx, br)
				if seen[k] {
					t.Fatalf("duplicate key for (%d,%d,%d)", vid, idx, br)
				}
				seen[k] = true
			}
		}
	}
}

// TestValidateBitrates: a ladder must be positive, strictly ascending,
// below MaxBitrateKbps, and give every rung its own ChunkKey code.
func TestValidateBitrates(t *testing.T) {
	cases := []struct {
		ladder []int
		ok     bool
	}{
		{nil, true},
		{[]int{235, 375, 560, 750, 1050, 1750, 2350, 3000}, true},
		{[]int{750}, true},
		{[]int{10, 20, MaxBitrateKbps - 1}, true},
		{[]int{235, 239, 750, 1750}, false}, // 235 and 239 share code 23
		{[]int{3000, 750, 235}, false},      // descending
		{[]int{750, 750}, false},            // repeated rung
		{[]int{0, 750, 41200}, false},       // zero rung
		{[]int{-235, 750}, false},           // negative rung
		{[]int{750, 41200}, false},          // overflows the 12-bit code
		{[]int{750, MaxBitrateKbps}, false}, // code 4096 wraps to 0
	}
	for _, c := range cases {
		if err := ValidateBitrates(c.ladder); (err == nil) != c.ok {
			t.Errorf("ValidateBitrates(%v) = %v, want ok=%v", c.ladder, err, c.ok)
		}
	}
}

func TestChunkSizeBytes(t *testing.T) {
	// 1000 kbps for 6 s = 750 KB.
	if got := ChunkSizeBytes(1000, 6); got != 750000 {
		t.Errorf("size = %d, want 750000", got)
	}
	if got := ChunkSizeBytes(235, 6); got != int64(235*1000/8*6) {
		t.Errorf("size = %d", got)
	}
}

func TestChunkDurationSec(t *testing.T) {
	c := testCatalog()
	v := &Video{ID: 0, DurationSec: 20, NumChunks: 4} // 6+6+6+2
	for i := 0; i < 3; i++ {
		if d := c.ChunkDurationSec(v, i); d != 6 {
			t.Errorf("chunk %d duration = %v, want 6", i, d)
		}
	}
	if d := c.ChunkDurationSec(v, 3); math.Abs(d-2) > 1e-9 {
		t.Errorf("last chunk duration = %v, want 2", d)
	}
	if c.ChunkDurationSec(v, 4) != 0 || c.ChunkDurationSec(v, -1) != 0 {
		t.Error("out-of-range chunk duration should be 0")
	}
}

// Property: total chunk durations reconstruct the video duration.
func TestChunkDurationsSumProperty(t *testing.T) {
	c := testCatalog()
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		v := c.Sample(r)
		var sum float64
		for i := 0; i < v.NumChunks; i++ {
			d := c.ChunkDurationSec(v, i)
			if d <= 0 || d > c.ChunkDuration+1e-9 {
				return false
			}
			sum += d
		}
		return math.Abs(sum-v.DurationSec) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := New(Config{NumVideos: 100}, stats.NewRand(7))
	b := New(Config{NumVideos: 100}, stats.NewRand(7))
	for i := range a.Videos {
		if a.Videos[i] != b.Videos[i] {
			t.Fatalf("video %d differs between identical seeds", i)
		}
	}
}

// TestDerive: a value is built once per key and handed to every later
// caller; distinct keys, including equal values of distinct key types,
// get their own builds.
func TestDerive(t *testing.T) {
	type keyA struct{ n int }
	type keyB struct{ n int }
	c := New(Config{NumVideos: 10}, stats.NewRand(1))
	builds := 0
	build := func(got *Catalog, k keyA) *int {
		if got != c {
			t.Fatal("build got another catalog")
		}
		builds++
		v := k.n * 10
		return &v
	}
	a1, a1again, a2 := Derive(c, keyA{1}, build), Derive(c, keyA{1}, build), Derive(c, keyA{2}, build)
	b1 := Derive(c, keyB{1}, func(*Catalog, keyB) string { return "b" })
	if a1 != a1again || *a1 != 10 || *a2 != 20 || b1 != "b" || builds != 2 {
		t.Fatalf("a1 %v (again %v), a2 %v, b1 %q, %d builds; want one shared a1, a2 = 20, b1 = b, 2 builds",
			*a1, *a1again, *a2, b1, builds)
	}
}
