package proxydetect

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vidperf/internal/core"
)

// synthSessions builds a deterministic synthetic trace: nClear direct
// sessions on unique IPs, plus shared-egress groups of the given sizes
// (each group one IP, mismatchEvery'th member beaconing its true
// address).
func synthSessions(nClear int, groups []int, mismatchEvery int) []core.SessionRecord {
	var out []core.SessionRecord
	id := uint64(1)
	for i := 0; i < nClear; i++ {
		ip := fmt.Sprintf("10.0.%d.%d", i/250, i%250+1)
		out = append(out, core.SessionRecord{
			SessionID: id, HTTPClientIP: ip, BeaconIP: ip,
			SRTTCV: 0.1, StartupMS: 500, RebufferRate: 0,
		})
		id++
	}
	for g, size := range groups {
		egress := fmt.Sprintf("egress-%04d", g+1)
		for m := 0; m < size; m++ {
			beacon := egress
			if mismatchEvery > 0 && m%mismatchEvery == 0 {
				beacon = fmt.Sprintf("10.9.%d.%d", g, m%250+1)
			}
			out = append(out, core.SessionRecord{
				SessionID: id, HTTPClientIP: egress, BeaconIP: beacon,
				Proxied: true, ProxyCohort: g + 1,
				SRTTCV: 0.9, StartupMS: 2500, RebufferRate: 0.2,
			})
			id++
		}
	}
	return out
}

func detectedCount(vs []Verdict) int {
	n := 0
	for _, v := range vs {
		if v.Suspected() {
			n++
		}
	}
	return n
}

// TestDetectThresholdMonotoneProperty: raising the rule-(ii) volume
// threshold can only shrink (never grow) the detected set — the
// detected share is monotone non-increasing in the threshold.
func TestDetectThresholdMonotoneProperty(t *testing.T) {
	prop := func(seed int64, thrA, thrB uint8) bool {
		r := rand.New(rand.NewSource(seed))
		groups := make([]int, 1+r.Intn(5))
		for i := range groups {
			groups[i] = 1 + r.Intn(120)
		}
		sessions := synthSessions(r.Intn(200), groups, 3)
		lo, hi := int(thrA%100)+1, int(thrB%100)+1
		if lo > hi {
			lo, hi = hi, lo
		}
		nLo := detectedCount(Detect(sessions, Config{MaxSessionsPerEgress: lo}))
		nHi := detectedCount(Detect(sessions, Config{MaxSessionsPerEgress: hi}))
		return nHi <= nLo
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDetectCleanTraceZeroDetections: a trace from a world without a
// proxy block — every session beacons its own low-volume IP — yields
// zero detections, and Evaluate reports perfect scores on it.
func TestDetectCleanTraceZeroDetections(t *testing.T) {
	sessions := synthSessions(300, nil, 0)
	verdicts := Detect(sessions, Config{})
	if n := detectedCount(verdicts); n != 0 {
		t.Fatalf("clean trace produced %d detections", n)
	}
	rep := Evaluate(sessions, verdicts)
	if rep.Precision() != 1 || rep.Recall() != 1 || rep.DetectedShare() != 0 {
		t.Fatalf("clean-trace report off: %+v", rep)
	}
	abl := Ablate(sessions, verdicts)
	if abl.Kept.SRTTCV.N != abl.All.SRTTCV.N {
		t.Fatalf("clean-trace ablation dropped sessions: %+v", abl)
	}
}

// TestDetectPurePermutationInvariant: the detector is a pure function
// of the session multiset — shuffling the input permutes the verdicts
// identically, so any sharding of the trace labels each session the
// same way.
func TestDetectPurePermutationInvariant(t *testing.T) {
	sessions := synthSessions(120, []int{60, 40, 7}, 2)
	base := Detect(sessions, Config{})
	byID := make(map[uint64]Verdict, len(sessions))
	for i := range sessions {
		byID[sessions[i].SessionID] = base[i]
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		perm := append([]core.SessionRecord(nil), sessions...)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got := Detect(perm, Config{})
		for i := range perm {
			if got[i] != byID[perm[i].SessionID] {
				t.Fatalf("trial %d: session %d verdict %+v changed under permutation (want %+v)",
					trial, perm[i].SessionID, got[i], byID[perm[i].SessionID])
			}
		}
	}
	again := Detect(sessions, Config{})
	for i := range base {
		if base[i] != again[i] {
			t.Fatal("Detect is not deterministic on identical input")
		}
	}
}

// TestDetectRules pins the two rules on a hand-built trace: the
// mismatch rule fires exactly on beacon disagreement, the volume rule
// exactly above the threshold, and detection never reads the
// ground-truth fields.
func TestDetectRules(t *testing.T) {
	// One 60-member cohort (volume fires), one 7-member cohort (volume
	// silent; only its mismatching members are caught).
	sessions := synthSessions(10, []int{60, 7}, 2)
	verdicts := Detect(sessions, Config{MaxSessionsPerEgress: 50})
	for i := range sessions {
		s := &sessions[i]
		v := verdicts[i]
		if v.Mismatch != s.IPMismatch() {
			t.Fatalf("session %d mismatch rule %v with IPs %q vs %q",
				s.SessionID, v.Mismatch, s.HTTPClientIP, s.BeaconIP)
		}
		if s.HTTPClientIP == "egress-0001" && !v.HighVolume {
			t.Fatalf("60-member egress not flagged high-volume")
		}
		if s.HTTPClientIP == "egress-0002" && v.HighVolume {
			t.Fatalf("7-member egress flagged high-volume at threshold 50")
		}
	}
	// Ground truth must not leak into detection: flipping Proxied on a
	// copy changes no verdict.
	flipped := append([]core.SessionRecord(nil), sessions...)
	for i := range flipped {
		flipped[i].Proxied = !flipped[i].Proxied
	}
	got := Detect(flipped, Config{MaxSessionsPerEgress: 50})
	for i := range verdicts {
		if got[i] != verdicts[i] {
			t.Fatal("detection read the ground-truth Proxied field")
		}
	}
}

// TestKeep: the kept dataset holds exactly the sessions no rule fired on
// and their chunks, with the volume rule's boundary at the threshold (50
// sessions behind one IP are kept, 51 are flagged) and sessions without
// an HTTP client IP counting toward no IP's volume; the input is left
// untouched and the result is indexed.
func TestKeep(t *testing.T) {
	d := &core.Dataset{}
	id := uint64(1)
	add := func(http, beacon string) {
		d.Sessions = append(d.Sessions, core.SessionRecord{
			SessionID: id, HTTPClientIP: http, BeaconIP: beacon,
		})
		d.Chunks = append(d.Chunks, core.ChunkRecord{SessionID: id},
			core.ChunkRecord{SessionID: id, ChunkID: 1})
		id++
	}
	for i := 0; i < 10; i++ {
		ip := fmt.Sprintf("10.0.0.%d", i+1)
		add(ip, ip)
	}
	for i := 0; i < 3; i++ {
		add("proxy-X", fmt.Sprintf("10.1.0.%d", i+1)) // mismatch rule only
	}
	for i := 0; i < 50; i++ {
		add("nat-50", "nat-50") // at the threshold: kept
	}
	for i := 0; i < 51; i++ {
		add("proxy-51", "proxy-51") // over the threshold: volume rule only
	}
	for i := 0; i < 60; i++ {
		add("", fmt.Sprintf("10.2.0.%d", i+1)) // no CDN-side address: kept
	}
	before := &core.Dataset{
		Sessions: append([]core.SessionRecord(nil), d.Sessions...),
		Chunks:   append([]core.ChunkRecord(nil), d.Chunks...),
	}

	verdicts := Detect(d.Sessions, Config{MaxSessionsPerEgress: 50})
	rep := Evaluate(d.Sessions, verdicts)
	if rep.MismatchDetected != 3 || rep.VolumeDetected != 51 {
		t.Fatalf("per-rule tallies off: %+v", rep)
	}
	kept := Keep(d, verdicts)
	if len(kept.Sessions) != 120 {
		t.Fatalf("kept %d sessions, want 120", len(kept.Sessions))
	}
	for i := range kept.Sessions {
		if ip := kept.Sessions[i].HTTPClientIP; ip == "proxy-X" || ip == "proxy-51" {
			t.Fatalf("suspected session %d kept", kept.Sessions[i].SessionID)
		}
	}
	if len(kept.Chunks) != 240 {
		t.Errorf("kept %d chunks, want 240", len(kept.Chunks))
	}
	for i := range kept.Chunks {
		if kept.Session(kept.Chunks[i].SessionID) == nil {
			t.Fatalf("chunk of dropped session %d kept", kept.Chunks[i].SessionID)
		}
	}
	if got := float64(len(kept.Sessions)) / float64(len(d.Sessions)); math.Abs(got-120.0/174) > 1e-12 {
		t.Errorf("kept fraction = %v", got)
	}
	if !reflect.DeepEqual(d.Sessions, before.Sessions) || !reflect.DeepEqual(d.Chunks, before.Chunks) {
		t.Error("Keep modified its input")
	}
	// Re-indexed: lookups resolve to the kept copy's own positions.
	if s := kept.Session(14); s == nil || s.HTTPClientIP != "nat-50" || s != &kept.Sessions[10] {
		t.Errorf("kept dataset not re-indexed: Session(14) = %+v", s)
	}
	if kept.Session(11) != nil {
		t.Error("dropped session still resolves in the kept dataset")
	}
}

// TestEvaluateConfusion pins the confusion-matrix arithmetic and the
// degenerate-denominator conventions.
func TestEvaluateConfusion(t *testing.T) {
	sessions := synthSessions(10, []int{60}, 2)
	rep := Evaluate(sessions, Detect(sessions, Config{MaxSessionsPerEgress: 50}))
	if rep.Sessions != 70 || rep.TruthProxied != 60 {
		t.Fatalf("report totals off: %+v", rep)
	}
	if rep.TruePositives != 60 || rep.FalsePositives != 0 || rep.FalseNegatives != 0 {
		t.Fatalf("confusion off: %+v", rep)
	}
	if rep.Precision() != 1 || rep.Recall() != 1 {
		t.Fatalf("scores off: precision=%g recall=%g", rep.Precision(), rep.Recall())
	}
	if got := rep.DetectedShare() - rep.TruthShare(); math.Abs(got) > 1e-12 {
		t.Fatalf("share delta %g on a fully-volume-detected cohort", got)
	}
}

// TestAblateSplitsKept: the ablation keeps exactly the unsuspected
// sessions, skips NaN startups, and shows the tromboned tail deflating
// once proxied sessions are removed.
func TestAblateSplitsKept(t *testing.T) {
	sessions := synthSessions(100, []int{60}, 1)
	sessions[0].StartupMS = math.NaN() // a never-started direct session
	verdicts := Detect(sessions, Config{MaxSessionsPerEgress: 50})
	abl := Ablate(sessions, verdicts)
	if abl.All.SRTTCV.N != 160 || abl.Kept.SRTTCV.N != 100 {
		t.Fatalf("ablation sizes off: all=%d kept=%d", abl.All.SRTTCV.N, abl.Kept.SRTTCV.N)
	}
	if abl.All.StartupMS.N != 159 || abl.Kept.StartupMS.N != 99 {
		t.Fatalf("NaN startup not skipped: all=%d kept=%d", abl.All.StartupMS.N, abl.Kept.StartupMS.N)
	}
	if !(abl.Kept.SRTTCV.P90 < abl.All.SRTTCV.P90) {
		t.Fatalf("removing tromboned sessions did not deflate the CV tail: %+v", abl)
	}
	if q := quantiles(nil); q.N != 0 || !math.IsNaN(q.P50) {
		t.Fatalf("empty quantiles = %+v", q)
	}
}

// TestEvaluateEdgeCases pins the degenerate-denominator conventions
// (empty trace, nothing detected, nothing proxied) and the
// false-positive arm: a clear session swept up by a shared-IP beacon
// mismatch counts against precision.
func TestEvaluateEdgeCases(t *testing.T) {
	if rep := Evaluate(nil, nil); rep.DetectedShare() != 0 || rep.TruthShare() != 0 ||
		rep.Precision() != 1 || rep.Recall() != 1 {
		t.Fatalf("empty report conventions off: %+v", rep)
	}
	// A direct session whose beacon disagrees (e.g. a mobile client that
	// changed networks mid-session) is a false positive of rule (i).
	sessions := synthSessions(5, []int{60}, 0)
	sessions[0].BeaconIP = "172.16.0.9"
	rep := Evaluate(sessions, Detect(sessions, Config{MaxSessionsPerEgress: 50}))
	if rep.FalsePositives != 1 || rep.TruePositives != 60 {
		t.Fatalf("confusion off: %+v", rep)
	}
	if rep.Precision() >= 1 || rep.Recall() != 1 {
		t.Fatalf("scores off: precision=%g recall=%g", rep.Precision(), rep.Recall())
	}
	if rep.MismatchDetected != 1 || rep.VolumeDetected != 60 {
		t.Fatalf("per-rule tallies off: %+v", rep)
	}
}
