package workload

import (
	"math"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/clientstack"
	"vidperf/internal/live"
	"vidperf/internal/netpath"
	"vidperf/internal/proxypop"
	"vidperf/internal/stats"
)

func testPop() *Population {
	return Build(Scenario{Seed: 1, NumSessions: 1000, NumPrefixes: 800})
}

// TestScenarioValidate: the zero scenario (all defaults) and the paper's
// explicit knobs are valid; a non-finite or negative value of a knob only
// Go callers can set is refused by name.
func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{}).Validate(); err != nil {
		t.Fatalf("zero scenario: %v", err)
	}
	ok := Scenario{NumSessions: 1, ResidentialProxyFrac: 1, Fleet: cdn.FleetConfig{NumPoPs: 6}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("boundary scenario: %v", err)
	}
	for name, sc := range map[string]Scenario{
		"ArrivalOffsetMS": {ArrivalOffsetMS: -1},
		"MaxBufferSec":    {MaxBufferSec: math.Inf(1)},
		"NumPoPs 7":       {Fleet: cdn.FleetConfig{NumPoPs: 7}},
		"NumPoPs -1":      {Fleet: cdn.FleetConfig{NumPoPs: -1}},
		"ascending":       {Catalog: catalog.Config{Bitrates: []int{3000, 750, 235}}},
		"cache_policy":    {Fleet: cdn.FleetConfig{Server: cdn.Config{Policy: "fifo"}}},
		"live":            {Live: live.Config{Channels: -1}},
		"proxy":           {Proxy: proxypop.Config{Share: 2}},
	} {
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %v, want one naming it", name, err)
		}
	}
}

func TestBuildDefaults(t *testing.T) {
	p := testPop()
	if len(p.Prefixes) != 800 {
		t.Fatalf("prefixes = %d", len(p.Prefixes))
	}
	if p.Catalog == nil || len(p.PoPs) != 6 {
		t.Fatal("catalog/PoPs missing")
	}
	sc := p.Scenario
	if sc.ABRName != "hybrid" || sc.MeanWatchedChunks != 10 {
		t.Errorf("defaults not applied: %+v", sc)
	}
}

func TestPrefixMix(t *testing.T) {
	p := testPop()
	var us, ent, proxy int
	for i := range p.Prefixes {
		pre := &p.Prefixes[i]
		if pre.US {
			us++
		}
		if pre.Profile.Org == netpath.Enterprise {
			ent++
		}
		if pre.Profile.Proxy {
			proxy++
			if pre.EgressIP == "" {
				t.Fatal("proxy prefix without egress IP")
			}
		}
		if pre.PoP < 0 || pre.PoP >= 6 {
			t.Fatalf("bad PoP %d", pre.PoP)
		}
		if pre.DistKM < 0 {
			t.Fatal("negative distance")
		}
		if pre.Profile.OrgName == "" {
			t.Fatal("unnamed org")
		}
	}
	usFrac := float64(us) / 800
	if usFrac < 0.88 || usFrac > 0.98 {
		t.Errorf("US fraction = %v, want ~0.93", usFrac)
	}
	entFrac := float64(ent) / 800
	if entFrac < 0.05 || entFrac > 0.16 {
		t.Errorf("enterprise fraction = %v, want ~0.10", entFrac)
	}
	if proxy == 0 {
		t.Error("no proxy prefixes")
	}
}

func TestNonUSFartherThanUS(t *testing.T) {
	p := testPop()
	var usD, intlD stats.Summary
	for i := range p.Prefixes {
		if p.Prefixes[i].US {
			usD.Add(p.Prefixes[i].DistKM)
		} else {
			intlD.Add(p.Prefixes[i].DistKM)
		}
	}
	if intlD.Mean() <= usD.Mean() {
		t.Errorf("international clients (%.0f km) not farther than US (%.0f km)",
			intlD.Mean(), usD.Mean())
	}
}

func TestPlanSessionDeterministic(t *testing.T) {
	p := testPop()
	a, b := p.PlanSession(42), p.PlanSession(42)
	if a.Prefix.ID != b.Prefix.ID || a.Video.ID != b.Video.ID ||
		a.WatchChunks != b.WatchChunks || a.Platform != b.Platform {
		t.Error("plans differ for same id")
	}
	c := p.PlanSession(43)
	if a.ArrivalMS == c.ArrivalMS && a.Video.ID == c.Video.ID && a.Prefix.ID == c.Prefix.ID {
		t.Error("different ids produced identical plans")
	}
}

func TestPlanBasics(t *testing.T) {
	p := testPop()
	for id := uint64(1); id <= 500; id++ {
		plan := p.PlanSession(id)
		if plan.WatchChunks < 1 || plan.WatchChunks > plan.Video.NumChunks {
			t.Fatalf("watch chunks %d out of range", plan.WatchChunks)
		}
		if plan.ArrivalMS < 0 || plan.ArrivalMS > p.Scenario.ArrivalWindowMS {
			t.Fatalf("arrival %v out of window", plan.ArrivalMS)
		}
		if plan.PathParams.BaseRTTms <= 0 || plan.PathParams.BottleneckKbps <= 0 {
			t.Fatalf("bad path params %+v", plan.PathParams)
		}
		if plan.HTTPIP == "" || plan.ClientIP == "" {
			t.Fatal("missing IPs")
		}
		if plan.Prefix.EgressIP == "" && plan.HTTPIP != plan.ClientIP {
			t.Fatal("non-proxy session with IP mismatch")
		}
	}
}

func TestPlatformMixMatchesPaper(t *testing.T) {
	p := testPop()
	counts := map[clientstack.Browser]int{}
	oses := map[clientstack.OS]int{}
	n := 20000
	for id := 1; id <= n; id++ {
		plan := p.PlanSession(uint64(id))
		counts[plan.Platform.Browser]++
		oses[plan.Platform.OS]++
	}
	frac := func(c int) float64 { return float64(c) / float64(n) }
	if f := frac(oses[clientstack.Windows]); math.Abs(f-0.885) > 0.02 {
		t.Errorf("Windows share = %.3f, want 0.885", f)
	}
	if f := frac(oses[clientstack.MacOS]); math.Abs(f-0.094) > 0.02 {
		t.Errorf("Mac share = %.3f, want 0.094", f)
	}
	if f := frac(counts[clientstack.Chrome]); math.Abs(f-0.43) > 0.03 {
		t.Errorf("Chrome share = %.3f, want ~0.43", f)
	}
	if f := frac(counts[clientstack.Firefox]); math.Abs(f-0.37) > 0.03 {
		t.Errorf("Firefox share = %.3f, want ~0.37", f)
	}
	if f := frac(counts[clientstack.InternetExplorer]); math.Abs(f-0.13) > 0.02 {
		t.Errorf("IE share = %.3f, want ~0.13", f)
	}
	// The long tail exists (Fig. 22 needs them).
	for _, b := range []clientstack.Browser{clientstack.Opera, clientstack.Vivaldi, clientstack.Yandex} {
		if counts[b] == 0 {
			t.Errorf("no %v sessions generated", b)
		}
	}
	// Safari off-Mac exists (Table 5 lists Safari on Windows and Linux).
	safariOffMac := 0
	for id := 1; id <= n; id++ {
		plan := p.PlanSession(uint64(id))
		if plan.Platform.Browser == clientstack.Safari && plan.Platform.OS != clientstack.MacOS {
			safariOffMac++
		}
	}
	if safariOffMac == 0 {
		t.Error("no Safari-off-Mac sessions")
	}
}

func TestSamplePrefixFollowsWeights(t *testing.T) {
	p := testPop()
	r := stats.NewRand(5)
	counts := make(map[int]int)
	for i := 0; i < 50000; i++ {
		counts[p.SamplePrefix(r).ID]++
	}
	// The heaviest prefix should be sampled far more than the median one.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 150 {
		t.Errorf("weight skew missing: max count %d", maxC)
	}
}

func TestConnTypeLabel(t *testing.T) {
	r := stats.NewRand(6)
	ent := Prefix{Profile: netpath.EnterpriseProfile(10, r)}
	if ConnTypeLabel(&ent) != "enterprise" {
		t.Error("enterprise label wrong")
	}
	res := Prefix{Profile: netpath.ResidentialProfile(10, r)}
	got := ConnTypeLabel(&res)
	if got != "fiber" && got != "cable" && got != "dsl" {
		t.Errorf("residential label = %q", got)
	}
}

// checkPartition pins determinism invariant 2 on the partitioner the
// runner uses, PartitionBySlot: every session lands exactly once, in
// ascending ID order, in the bucket of its plan's serving PoP and server
// slot, carrying its plan's arrival; and each bucket's chunk total is the
// sum of its plans' watch lengths.
func checkPartition(t *testing.T, p *Population) {
	t.Helper()
	checkPartitionCoverage(t, p)
	checkPartitionBuckets(t, p)
	checkPartitionArrivals(t, p)
}

// slotPartition returns p's PartitionBySlot buckets and chunk totals under
// its scenario's fleet, after checking there is one of each per shard.
func slotPartition(t *testing.T, p *Population) (cdn.FleetConfig, [][]SessionRef, []int) {
	t.Helper()
	cfg := p.Scenario.Fleet.WithDefaults()
	parts, chunks := p.PartitionBySlot(cfg)
	if len(parts) != cfg.NumPoPs*cfg.ServersPerPoP || len(chunks) != len(parts) {
		t.Fatalf("got %d buckets and %d chunk totals, want %d", len(parts), len(chunks), cfg.NumPoPs*cfg.ServersPerPoP)
	}
	return cfg, parts, chunks
}

// checkPartitionCoverage: every session appears exactly once, IDs ascend
// within each bucket, and each bucket's chunk total is the sum of its
// plans' watch lengths.
func checkPartitionCoverage(t *testing.T, p *Population) {
	t.Helper()
	_, parts, chunks := slotPartition(t, p)
	n := p.Scenario.NumSessions
	seen := make([]int, n+1)
	for b, refs := range parts {
		var last uint64
		sum := 0
		for _, ref := range refs {
			if ref.ID <= last || ref.ID > uint64(n) {
				t.Fatalf("bucket %d: session %d after %d (IDs must ascend within 1..%d)", b, ref.ID, last, n)
			}
			last = ref.ID
			seen[ref.ID]++
			sum += p.PlanSession(ref.ID).WatchChunks
		}
		if chunks[b] != sum {
			t.Fatalf("bucket %d: chunk total %d, plans sum to %d", b, chunks[b], sum)
		}
	}
	for id := 1; id <= n; id++ {
		if seen[id] != 1 {
			t.Fatalf("session %d appears %d times", id, seen[id])
		}
	}
}

// checkPartitionBuckets: each session sits in the bucket of its plan's
// serving PoP and server slot.
func checkPartitionBuckets(t *testing.T, p *Population) {
	t.Helper()
	cfg, parts, _ := slotPartition(t, p)
	for b, refs := range parts {
		for _, ref := range refs {
			plan := p.PlanSession(ref.ID)
			if want := plan.ServingPoP*cfg.ServersPerPoP + cdn.SlotFor(cfg, plan.Video.ID, plan.Video.Rank, plan.ID); b != want {
				t.Fatalf("session %d in bucket %d, plan (PoP %d) says bucket %d", ref.ID, b, plan.ServingPoP, want)
			}
		}
	}
}

// checkPartitionArrivals: each session carries its plan's arrival.
func checkPartitionArrivals(t *testing.T, p *Population) {
	t.Helper()
	_, parts, _ := slotPartition(t, p)
	for _, refs := range parts {
		for _, ref := range refs {
			if want := p.PlanSession(ref.ID).ArrivalMS; ref.ArrivalMS != want {
				t.Fatalf("session %d: partition arrival %v != plan arrival %v", ref.ID, ref.ArrivalMS, want)
			}
		}
	}
}

// partitionCases are the scenario families that change a plan head, and a
// fleet with fewer PoPs than the defaults (prefixes must map to the PoPs
// that exist); the timeline families (failover, arrival warp) run
// checkPartition in timeline_test.go.
var partitionCases = []struct {
	name string
	sc   Scenario
}{
	{"plain", Scenario{Seed: 1, NumSessions: 1000, NumPrefixes: 800}},
	{"offset-top-ranks", Scenario{Seed: 42, NumSessions: 500, NumPrefixes: 120,
		ArrivalOffsetMS: 3.6e6, Fleet: cdn.FleetConfig{PartitionTopRanks: 50}}},
	{"live", Scenario{Seed: 9, NumSessions: 500, NumPrefixes: 120,
		Live: live.Config{Channels: 8, SwitchPerMin: 2}}},
	{"proxy", Scenario{Seed: 61, NumSessions: 500, NumPrefixes: 120,
		Proxy: proxypop.Config{Share: 0.23, Cohorts: 4, EgressKbps: 25000}}},
	{"three-pops", Scenario{Seed: 3, NumSessions: 500, NumPrefixes: 300,
		Fleet: cdn.FleetConfig{NumPoPs: 3}}},
}

func runPartitionCases(t *testing.T, check func(*testing.T, *Population)) {
	for _, c := range partitionCases {
		t.Run(c.name, func(t *testing.T) { check(t, Build(c.sc)) })
	}
}

// TestSessionPoPMatchesPlan: PartitionBySlot puts each session in the
// bucket of its plan's serving PoP and slot.
func TestSessionPoPMatchesPlan(t *testing.T) { runPartitionCases(t, checkPartitionBuckets) }

// TestPartitionByPoPCoversAllSessions: PartitionBySlot covers every
// session exactly once, in ascending ID order, with matching chunk totals.
func TestPartitionByPoPCoversAllSessions(t *testing.T) {
	runPartitionCases(t, checkPartitionCoverage)
}

// TestSessionArrivalMatchesPlan: PartitionBySlot's refs carry each plan's
// arrival.
func TestSessionArrivalMatchesPlan(t *testing.T) { runPartitionCases(t, checkPartitionArrivals) }
