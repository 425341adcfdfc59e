package diagnose

import (
	"math"
	"testing"

	"vidperf/internal/core"
)

// smooth returns a session that passes the QoE screen at high bitrate.
func smooth() core.SessionRecord {
	return core.SessionRecord{StartupMS: 500, RebufferRate: 0, AvgBitrateKbps: 2500}
}

// degraded returns a session that fails the QoE screen on re-buffering.
func degraded() core.SessionRecord {
	return core.SessionRecord{StartupMS: 900, RebufferRate: 0.05, AvgBitrateKbps: 1200}
}

// chunk returns a healthy fast chunk (score ≫ 1, hit, no loss).
func chunk() core.ChunkRecord {
	return core.ChunkRecord{
		DurationSec: 6, DFBms: 40, DLBms: 400, SizeBytes: 1 << 20,
		DwaitMS: 0.2, DopenMS: 0.3, DreadMS: 0.5, CacheHit: true, CacheLevel: "ram",
		SRTTms: 40, SRTTVarMS: 5, MSS: 1460, CWND: 30, SegsSent: 700,
	}
}

// slowChunk returns a slow chunk (score < 1 via a huge last-byte delay)
// with no server, loss, or stack evidence — the network-throughput
// residual.
func slowChunk() core.ChunkRecord {
	c := chunk()
	c.DFBms, c.DLBms = 100, 8000
	return c
}

// TestClassifyPerLabel drives one synthetic session through every label.
func TestClassifyPerLabel(t *testing.T) {
	missFetch := chunk()
	missFetch.CacheHit, missFetch.CacheLevel = false, "miss"
	missFetch.DwaitMS, missFetch.DopenMS, missFetch.DreadMS = 50, 50, 100
	missFetch.DBEms = 2500
	missFetch.DFBms, missFetch.DLBms = 3000, 4000 // score 6/7 < 1; server share 2700/7000

	backend := chunk()
	backend.DreadMS = 2700 // slow hit: the CDN's own read path
	backend.DFBms, backend.DLBms = 3000, 4000

	lossy := slowChunk()
	lossy.SegsSent, lossy.SegsLost = 100, 10

	stack := chunk()
	// Eq. 5: DDS >= 1000 − 1 − RTO(200+50+20) = 729 > the 150 ms floor.
	stack.DwaitMS, stack.DopenMS, stack.DreadMS = 0.4, 0.3, 0.3
	stack.DFBms, stack.DLBms = 1000, 5500
	stack.SRTTms, stack.SRTTVarMS = 50, 5

	abrLtd := smooth()
	abrLtd.AvgBitrateKbps = 900

	// A tromboned session: high CV(SRTT) plus the rule-(i) IP mismatch.
	// The same CV without the mismatch, or without any CDN-side address,
	// falls through to the per-chunk vote.
	tromboned := degraded()
	tromboned.SRTTCV, tromboned.HTTPClientIP, tromboned.BeaconIP = 1.2, "egress-0001", "10.0.0.7"
	highCV := tromboned
	highCV.HTTPClientIP = highCV.BeaconIP
	noHTTPIP := tromboned
	noHTTPIP.HTTPClientIP = ""

	cases := []struct {
		name   string
		sess   core.SessionRecord
		chunks []core.ChunkRecord
		want   Label
	}{
		{"healthy", smooth(), []core.ChunkRecord{chunk(), chunk()}, Healthy},
		{"abr-limited", abrLtd, []core.ChunkRecord{chunk(), chunk()}, ABRLimited},
		{"cache-miss-fetch", degraded(), []core.ChunkRecord{missFetch, chunk()}, CacheMissFetch},
		{"backend-latency", degraded(), []core.ChunkRecord{backend, chunk()}, BackendLatency},
		{"network-throughput", degraded(), []core.ChunkRecord{slowChunk(), chunk()}, NetworkThroughput},
		{"network-loss", degraded(), []core.ChunkRecord{lossy, chunk()}, NetworkLoss},
		{"client-stack", degraded(), []core.ChunkRecord{stack, chunk()}, ClientStack},
		{"proxy-tromboned", tromboned, []core.ChunkRecord{slowChunk(), chunk()}, ProxyTromboned},
		{"high CV, no IP mismatch", highCV, []core.ChunkRecord{slowChunk(), chunk()}, NetworkThroughput},
		{"high CV, no HTTP client IP", noHTTPIP, []core.ChunkRecord{slowChunk(), chunk()}, NetworkThroughput},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := Classify(c.sess, c.chunks, Config{})
			if d.Label != c.want {
				t.Fatalf("label = %q, want %q (diagnosis %+v)", d.Label, c.want, d)
			}
		})
	}
}

// TestDegradedScreenBoundaries pins the strict-inequality semantics of
// the QoE screen: values exactly at a threshold stay on the healthy side.
func TestDegradedScreenBoundaries(t *testing.T) {
	cfg := Config{}.WithDefaults()
	cases := []struct {
		name string
		sess core.SessionRecord
		want Label
	}{
		{"startup at threshold", core.SessionRecord{StartupMS: startupDegradedMS, AvgBitrateKbps: 2500}, Healthy},
		{"startup above threshold", core.SessionRecord{StartupMS: startupDegradedMS + 1, AvgBitrateKbps: 2500}, NetworkThroughput},
		{"rebuffer at threshold", core.SessionRecord{StartupMS: 500, RebufferRate: rebufferDegraded, AvgBitrateKbps: 2500}, Healthy},
		{"rebuffer above threshold", core.SessionRecord{StartupMS: 500, RebufferRate: rebufferDegraded + 0.001, AvgBitrateKbps: 2500}, NetworkThroughput},
		{"bitrate at abr threshold", core.SessionRecord{StartupMS: 500, AvgBitrateKbps: abrLowShare * cfg.LadderTopKbps}, Healthy},
		{"bitrate below abr threshold", core.SessionRecord{StartupMS: 500, AvgBitrateKbps: abrLowShare*cfg.LadderTopKbps - 1}, ABRLimited},
		{"never started", core.SessionRecord{StartupMS: math.NaN(), AvgBitrateKbps: 2500}, NetworkThroughput},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The degraded cases carry one residual slow chunk so the vote
			// has something to attribute; the point here is the screen.
			d := Classify(c.sess, []core.ChunkRecord{slowChunk()}, Config{})
			if d.Label != c.want {
				t.Fatalf("label = %q, want %q", d.Label, c.want)
			}
		})
	}
}

// TestLayerRuleBoundaries pins each per-chunk threshold exactly at its
// boundary value.
func TestLayerRuleBoundaries(t *testing.T) {
	// Loss rate strictly above lossRate flips the chunk to loss.
	atLoss := slowChunk()
	atLoss.SegsSent, atLoss.SegsLost = 100, int(lossRate*100) // == threshold
	overLoss := slowChunk()
	overLoss.SegsSent, overLoss.SegsLost = 100, int(lossRate*100)+1

	// Server latency at exactly serverShare of delivery time counts as
	// server (>=). Build DFB+DLB = 10000 and server = 3000, keeping DFB
	// within one RTO of the server latency so Eq. 5 stays silent.
	atServer := chunk()
	atServer.DFBms, atServer.DLBms = 3100, 6900
	atServer.CacheHit, atServer.CacheLevel = false, "miss"
	atServer.DwaitMS, atServer.DopenMS, atServer.DreadMS = 500, 500, 500
	atServer.DBEms = serverShare*10000 - 1500 // server total exactly 3000
	underServer := atServer
	underServer.DBEms -= 4 // just below the share → residual throughput

	// DBE exactly equal to DCDN on a miss stays cache-miss-fetch (>=).
	split := chunk()
	split.DFBms, split.DLBms = 3100, 4900
	split.CacheHit, split.CacheLevel = false, "miss"
	split.DwaitMS, split.DopenMS, split.DreadMS = 500, 500, 500
	split.DBEms = 1500 // == DCDN
	belowSplit := split
	belowSplit.DBEms = 1499 // CDN service dominates → backend-latency

	cases := []struct {
		name  string
		chunk core.ChunkRecord
		want  Label
	}{
		{"loss at threshold is not loss", atLoss, NetworkThroughput},
		{"loss above threshold", overLoss, NetworkLoss},
		{"server share at threshold", atServer, CacheMissFetch},
		{"server share below threshold", underServer, NetworkThroughput},
		{"DBE == DCDN on miss", split, CacheMissFetch},
		{"DBE < DCDN on miss", belowSplit, BackendLatency},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := Classify(degraded(), []core.ChunkRecord{c.chunk}, Config{})
			if d.Label != c.want {
				t.Fatalf("label = %q, want %q (diagnosis %+v)", d.Label, c.want, d)
			}
		})
	}

	// Eq. 5 bound exactly at ddsBoundMS is not stack; just above is.
	// DDS = DFB − DCDN − DBE − (200 + srtt + 4·srttvar); with srtt=50,
	// var=5, DCDN=1: DDS = DFB − 271.
	at := chunk()
	at.DwaitMS, at.DopenMS, at.DreadMS = 0.4, 0.3, 0.3
	at.SRTTms, at.SRTTVarMS = 50, 5
	at.DFBms = 271 + ddsBoundMS
	at.DLBms = 8000
	d := Classify(degraded(), []core.ChunkRecord{at}, Config{})
	if d.Label != NetworkThroughput {
		t.Fatalf("DDS at bound: label = %q, want %q", d.Label, NetworkThroughput)
	}
	above := at
	above.DFBms += 2
	d = Classify(degraded(), []core.ChunkRecord{above}, Config{})
	if d.Label != ClientStack {
		t.Fatalf("DDS above bound: label = %q, want %q", d.Label, ClientStack)
	}
}

// TestVoteMajorityAndTieBreak: the majority layer wins; exact ties
// resolve in the fixed specificity order (stack, loss, server,
// throughput).
func TestVoteMajorityAndTieBreak(t *testing.T) {
	lossy := slowChunk()
	lossy.SegsSent, lossy.SegsLost = 100, 20

	// Two loss chunks vs one throughput chunk: loss wins the majority.
	d := Classify(degraded(), []core.ChunkRecord{lossy, lossy, slowChunk()}, Config{})
	if d.Label != NetworkLoss {
		t.Fatalf("majority: label = %q, want %q", d.Label, NetworkLoss)
	}
	if d.SlowChunks != 3 || d.LossSlow != 2 || d.ThroughputSlow != 1 {
		t.Fatalf("vote counts wrong: %+v", d)
	}

	// One of each: the tie breaks toward loss over throughput.
	d = Classify(degraded(), []core.ChunkRecord{lossy, slowChunk()}, Config{})
	if d.Label != NetworkLoss {
		t.Fatalf("tie: label = %q, want %q", d.Label, NetworkLoss)
	}
}

// TestFallbacks covers degraded sessions the slow-chunk screen cannot
// see: no slow chunk at all (vote over everything) and no chunks at all.
func TestFallbacks(t *testing.T) {
	// Degraded session whose chunks are all individually fast: the vote
	// falls back to every chunk; fast hits resolve to throughput
	// (residual) since no layer shows evidence.
	d := Classify(degraded(), []core.ChunkRecord{chunk(), chunk()}, Config{})
	if d.SlowChunks != 2 {
		t.Fatalf("fallback did not vote over all chunks: %+v", d)
	}

	// No chunks at all: network by elimination.
	d = Classify(degraded(), nil, Config{})
	if d.Label != NetworkThroughput || d.SlowChunks != 0 {
		t.Fatalf("empty session: %+v", d)
	}
}

// TestConfigDefaults: the zero config classifies against the paper's
// 3000 kbps ladder top and an explicit ladder top survives.
func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).WithDefaults(); c.LadderTopKbps != 3000 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c := (Config{LadderTopKbps: 1050}).WithDefaults(); c.LadderTopKbps != 1050 {
		t.Fatalf("explicit value overwritten: %+v", c)
	}
}

// TestLabelsCanonicalOrder pins the order every per-label aggregate
// iterates in; reordering would silently change merged snapshot bytes.
func TestLabelsCanonicalOrder(t *testing.T) {
	want := []Label{CacheMissFetch, BackendLatency, NetworkThroughput,
		NetworkLoss, ProxyTromboned, ClientStack, LiveEdgeLimited, ABRLimited, Healthy}
	got := Labels()
	if len(got) != len(want) {
		t.Fatalf("Labels() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestClassifyPure: same inputs, same diagnosis — the property the
// sharded streaming path depends on.
func TestClassifyPure(t *testing.T) {
	s := degraded()
	chunks := []core.ChunkRecord{slowChunk(), chunk(), slowChunk()}
	first := Classify(s, chunks, Config{})
	for i := 0; i < 10; i++ {
		if got := Classify(s, chunks, Config{}); got != first {
			t.Fatalf("classification not pure: %+v vs %+v", got, first)
		}
	}
}
