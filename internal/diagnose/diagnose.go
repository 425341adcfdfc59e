// Package diagnose answers the paper's headline question for every
// finished session: which layer hurt it? It classifies each session's
// dominant bottleneck into one of seven labels, combining the §4.3
// detection methods already in internal/core (the Eq. 4 download-stack
// outlier screen and the Eq. 5 persistent-stack bound) with threshold
// rules over the joined per-chunk CDN and TCP fields.
//
// The label taxonomy mirrors the paper's §4–§6 structure:
//
//   - cache-miss-fetch: server layer, §4.1 / Fig. 5 — the session's slow
//     chunks were cache misses whose backend fetch (D_BE) dominated the
//     server latency; the cache, not the origin, is the problem.
//   - backend-latency: server layer, §4.1 / Fig. 5's retry-timer mode —
//     slow chunks spent their server time in the CDN's own service path
//     (D_wait queueing, D_open/D_read including the ATS open-read retry
//     timer) or in abnormally slow backend fetches.
//   - network-throughput: network layer, §4.2 / Figs. 7–10 — delivery
//     time is dominated by the path (self-loading, long RTT, enterprise
//     egress), with no loss or stack evidence.
//   - network-loss: network layer, §4.2 / Figs. 11–13 — slow chunks
//     carried retransmissions above the loss threshold.
//   - proxy-tromboned: network layer, §3 + §4.2 / Table 4 — the session
//     shows the proxy signature (CDN-seen IP disagrees with the player
//     beacon) and a high-CV(SRTT) path: it trombones through a shared
//     proxy/VPN egress whose queueing colours every chunk.
//   - client-stack: client layer, §4.3 / Figs. 16–17 — chunks flagged by
//     the Eq. 4 outlier screen or with an Eq. 5 lower bound above the
//     configured floor; the download stack buffered data the player
//     blamed on the network.
//   - live-edge-limited: live scenarios only (internal/live) — the
//     session's dominant stall was the publish clock: it caught up with
//     the live edge and had to wait for chunks that did not exist yet.
//     The medium, not any delivery layer, set the pace.
//   - abr-limited: §4.4 / Fig. 19 — the session played smoothly but the
//     adaptation algorithm left bitrate on the table (average bitrate
//     below the configured share of the ladder top with no stalls).
//   - healthy: none of the above; startup, re-buffering and bitrate all
//     within thresholds.
//
// Classification is a pure function of (SessionRecord, []ChunkRecord,
// Config): no randomness, no global state, map-free iteration — the same
// inputs always yield the same label, which is what lets the streaming
// telemetry path count labels byte-identically at any shard parallelism.
package diagnose

import (
	"math"

	"vidperf/internal/core"
)

// Label names one diagnosed bottleneck layer.
type Label string

// The nine diagnosis labels, from the server outward to the client.
const (
	CacheMissFetch    Label = "cache-miss-fetch"
	BackendLatency    Label = "backend-latency"
	NetworkThroughput Label = "network-throughput"
	NetworkLoss       Label = "network-loss"
	ProxyTromboned    Label = "proxy-tromboned"
	ClientStack       Label = "client-stack"
	LiveEdgeLimited   Label = "live-edge-limited"
	ABRLimited        Label = "abr-limited"
	Healthy           Label = "healthy"
)

// Labels returns every label in canonical report order. Telemetry
// accumulators iterate this slice (never a map) when building per-label
// state, so merged snapshots are reproducible.
func Labels() []Label {
	return []Label{
		CacheMissFetch, BackendLatency, NetworkThroughput,
		NetworkLoss, ProxyTromboned, ClientStack, LiveEdgeLimited,
		ABRLimited, Healthy,
	}
}

// The classifier's thresholds, set against the paper's figures.
const (
	// startupDegradedMS marks a session degraded when its startup delay
	// exceeds it: about 1.7× the default 6 s buffering threshold, near
	// which §5's startup delays concentrate. Sessions that never started
	// playback (NaN startup) are always degraded.
	startupDegradedMS = 10000

	// rebufferDegraded marks a session degraded when its re-buffering
	// ratio (fraction of session time stalled) exceeds it: the paper
	// reports re-buffering as rare (§5), so 1% is already an outlier.
	rebufferDegraded = 0.01

	// abrLowShare: a smooth session whose average bitrate is below this
	// share of the ladder's top rung is abr-limited rather than healthy
	// (§5: most sessions sit at the top rungs).
	abrLowShare = 0.5

	// lossRate is the per-chunk retransmission-rate threshold above which
	// a slow chunk is charged to network loss (Fig. 12: re-buffering
	// rises with the retransmission rate).
	lossRate = 0.05

	// ddsBoundMS charges a slow chunk to the client stack when its Eq. 5
	// lower bound on download-stack latency exceeds it, well past one
	// RTO of slack the bound already subtracts.
	ddsBoundMS = 150

	// serverShare charges a slow chunk to the server when the
	// server-side latency D_CDN + D_BE makes up at least this share of
	// the chunk's total delivery time D_FB + D_LB (the latency share of
	// Fig. 16).
	serverShare = 0.3

	// liveLagShare labels a degraded live session live-edge-limited when
	// its publish-clock wait is at least this share of its total stall
	// budget (lag + re-buffering time), i.e. the clock — not the delivery
	// path — dominated the stalls. Live channels extend the paper's
	// on-demand workload, so no figure of it calibrates this.
	liveLagShare = 0.5

	// proxyCVMin labels a degraded session proxy-tromboned when it shows
	// the §3/§4.2 proxy signature: the CDN-seen IP disagrees with the
	// beacon (rule-i evidence, not ground truth) AND the session's
	// CV(SRTT) is at least this (Table 4's high-CV tail). Tromboned paths
	// mix detour queueing into every chunk, so blaming a single delivery
	// layer would mis-charge the concentrator's queue.
	proxyCVMin = 0.8
)

// Config holds what a run tells the classifier about itself. The zero
// value of every field selects the documented default, so Config{} is
// the standard classifier.
type Config struct {
	// LadderTopKbps is the top rung of the encoding ladder (default 3000,
	// the paper's §3 ladder) used by the abr-limited screen.
	LadderTopKbps float64
}

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.LadderTopKbps == 0 {
		c.LadderTopKbps = 3000
	}
	return c
}

// Diagnosis is one session's classification with the evidence counts the
// vote was decided on (tests and reports read these; the streaming path
// keeps only Label).
type Diagnosis struct {
	Label Label

	// Degraded reports whether the session failed the QoE screen (the
	// healthy/abr-limited labels mean it did not).
	Degraded bool

	// SlowChunks is how many chunks entered the layer vote.
	SlowChunks int

	// Per-layer chunk votes (ServerSlow = MissFetchSlow + BackendSlow).
	MissFetchSlow  int
	BackendSlow    int
	ThroughputSlow int
	LossSlow       int
	StackSlow      int
}

// ServerSlow returns the combined server-layer vote.
func (d Diagnosis) ServerSlow() int { return d.MissFetchSlow + d.BackendSlow }

// Classify labels one finished session. chunks must be the session's
// records in ChunkID order (the order every core.RecordSink receives).
func Classify(s core.SessionRecord, chunks []core.ChunkRecord, cfg Config) Diagnosis {
	cfg = cfg.WithDefaults()
	var d Diagnosis

	d.Degraded = math.IsNaN(s.StartupMS) ||
		s.StartupMS > startupDegradedMS ||
		s.RebufferRate > rebufferDegraded
	if !d.Degraded {
		if s.AvgBitrateKbps < abrLowShare*cfg.LadderTopKbps {
			d.Label = ABRLimited
		} else {
			d.Label = Healthy
		}
		return d
	}

	// Live sessions whose stalls mostly came from waiting on the publish
	// clock are limited by the medium itself: no layer vote could blame a
	// delivery component for chunks that did not exist yet. The share test
	// keeps genuinely network- or server-stalled live sessions (small lag,
	// big re-buffering) in the regular vote below.
	if s.Live && s.LiveEdgeLagMS > 0 &&
		s.LiveEdgeLagMS >= liveLagShare*(s.LiveEdgeLagMS+s.RebufDurMS) {
		d.Label = LiveEdgeLimited
		return d
	}

	// Sessions with the proxy signature — CDN-vs-beacon IP mismatch (the
	// same rule-i evidence the §3 detector uses, never the ground-truth
	// flag) plus a high-CV(SRTT) path — are tromboning through a shared
	// egress: the detour's queueing colours every chunk, so the per-chunk
	// vote would scatter blame across layers that all sit behind the
	// concentrator.
	if s.IPMismatch() && s.SRTTCV >= proxyCVMin {
		d.Label = ProxyTromboned
		return d
	}

	// Eq. 4 runs once per session: outlier membership feeds the per-chunk
	// layer rule below.
	outlier := make([]bool, len(chunks))
	for _, i := range core.DetectStackOutliers(chunks).Outliers {
		outlier[i] = true
	}

	// Vote over the slow chunks — the ones that drained the buffer
	// (Eq. 2 score < 1) or had a stall charged to them.
	voted := false
	for i := range chunks {
		c := &chunks[i]
		if c.PerfScore() < 1 || c.BufCount > 0 {
			d.voteChunk(c, outlier[i])
			voted = true
		}
	}
	if !voted {
		// Degraded with no individually-slow chunk (e.g. a slow first
		// chunk below the score threshold, or a truncated session): vote
		// over everything the session fetched.
		for i := range chunks {
			d.voteChunk(&chunks[i], outlier[i])
		}
	}

	d.Label = d.resolve()
	return d
}

// voteChunk charges one chunk to a layer. Rule order is fixed — stack and
// loss have direct evidence, the server split needs the latency
// decomposition, and throughput is the residual network explanation.
func (d *Diagnosis) voteChunk(c *core.ChunkRecord, stackOutlier bool) {
	d.SlowChunks++
	switch {
	case stackOutlier || core.EstimateDDSms(*c) > ddsBoundMS:
		d.StackSlow++
	case c.LossRate() > lossRate:
		d.LossSlow++
	case c.ServerLatencyMS() >= serverShare*(c.DFBms+c.DLBms):
		// Server layer; split by which server component dominated. A miss
		// whose backend fetch is at least the CDN's own service time is
		// the cost of the miss itself; everything else (queueing, disk
		// reads, the open-read retry timer, slow hits) is the server's
		// own latency.
		if !c.CacheHit && c.DBEms >= c.DCDNms() {
			d.MissFetchSlow++
		} else {
			d.BackendSlow++
		}
	default:
		d.ThroughputSlow++
	}
}

// resolve picks the winning layer. Ties break in evidence-specificity
// order — stack (Eq. 4/5 are the most specific detectors), then loss
// (direct retransmission counts), then the server decomposition, then
// throughput as the residual — so classification never depends on
// iteration order.
func (d *Diagnosis) resolve() Label {
	if d.SlowChunks == 0 {
		// Degraded without a single fetched chunk: nothing ever arrived,
		// which is network territory by elimination.
		return NetworkThroughput
	}
	best, n := ClientStack, d.StackSlow
	if d.LossSlow > n {
		best, n = NetworkLoss, d.LossSlow
	}
	if server := d.ServerSlow(); server > n {
		n = server
		if d.MissFetchSlow >= d.BackendSlow {
			best = CacheMissFetch
		} else {
			best = BackendLatency
		}
	}
	if d.ThroughputSlow > n {
		best = NetworkThroughput
	}
	return best
}
