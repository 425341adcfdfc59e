// Package proxydetect reproduces the paper's §3 proxy-detection
// preprocessing as a scoreable, pure-function detector. It applies the
// two published rules to a session trace — (i) the CDN-seen HTTP client
// IP disagrees with the player-beacon IP, (ii) one client IP carries
// implausibly many sessions — and, because simulated traces carry the
// proxypop ground truth, it can also grade itself (precision/recall
// against SessionRecord.Proxied) and quantify the ablation: what the
// paper's QoE numbers would look like had proxied sessions stayed in.
//
// Detection reads only the evidence a real beacon pipeline has
// (HTTPClientIP, BeaconIP, per-IP session counts) — never the
// ground-truth Proxied/ProxyCohort fields, which are reserved for
// Evaluate's scoring. Every function is deterministic and
// permutation-invariant over the session order.
package proxydetect

import (
	"math"

	"vidperf/internal/core"
	"vidperf/internal/stats"
)

// DefaultMaxSessionsPerEgress is the rule-(ii) volume threshold: more
// sessions behind one IP than this flags the IP as a shared egress. 50
// suits laptop-scale traces ("more minutes of video per day than there
// are minutes in a day" at the paper's scale).
const DefaultMaxSessionsPerEgress = 50

// Config tunes the detector.
type Config struct {
	// MaxSessionsPerEgress is the rule-(ii) threshold; <= 0 selects
	// DefaultMaxSessionsPerEgress.
	MaxSessionsPerEgress int
}

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.MaxSessionsPerEgress <= 0 {
		c.MaxSessionsPerEgress = DefaultMaxSessionsPerEgress
	}
	return c
}

// Verdict is one session's detection outcome, aligned by index with the
// input sessions.
type Verdict struct {
	// Mismatch fires rule (i): SessionRecord.IPMismatch.
	Mismatch bool
	// HighVolume fires rule (ii): the session's HTTP client IP carries
	// more than the threshold's worth of sessions. Sessions without an
	// HTTP client IP count toward no IP's volume.
	HighVolume bool
}

// Suspected reports whether either rule fired.
func (v Verdict) Suspected() bool { return v.Mismatch || v.HighVolume }

// Detect applies the two §3 rules to every session and returns one
// verdict per input session, in input order. It is a pure function of
// the multiset of sessions: the per-IP counts make each verdict depend
// only on the session itself plus IP totals, so permuting or sharding
// the input permutes the verdicts identically.
func Detect(sessions []core.SessionRecord, cfg Config) []Verdict {
	cfg = cfg.WithDefaults()
	perIP := make(map[string]int, len(sessions))
	for i := range sessions {
		if ip := sessions[i].HTTPClientIP; ip != "" {
			perIP[ip]++
		}
	}
	out := make([]Verdict, len(sessions))
	for i := range sessions {
		s := &sessions[i]
		out[i] = Verdict{
			Mismatch:   s.IPMismatch(),
			HighVolume: perIP[s.HTTPClientIP] > cfg.MaxSessionsPerEgress,
		}
	}
	return out
}

// Keep returns the dataset the §3 preprocessing retains: the sessions no
// rule fired on, in input order, and their chunks. d and verdicts must be
// index-aligned (verdicts from Detect(d.Sessions, ...)); d is not
// modified, and the returned dataset is indexed.
func Keep(d *core.Dataset, verdicts []Verdict) *core.Dataset {
	kept := &core.Dataset{}
	keep := make(map[uint64]bool, len(d.Sessions))
	for i := range d.Sessions {
		if !verdicts[i].Suspected() {
			kept.Sessions = append(kept.Sessions, d.Sessions[i])
			keep[d.Sessions[i].SessionID] = true
		}
	}
	for i := range d.Chunks {
		if keep[d.Chunks[i].SessionID] {
			kept.Chunks = append(kept.Chunks, d.Chunks[i])
		}
	}
	kept.Index()
	return kept
}

// Report scores the verdicts against the trace's ground truth.
type Report struct {
	Sessions int
	Detected int
	// TruthProxied counts sessions the model placed behind a shared
	// egress (SessionRecord.Proxied — ground truth, used for scoring
	// only).
	TruthProxied int

	// Confusion counts: detected∧proxied, detected∧direct, missed
	// proxied.
	TruePositives  int
	FalsePositives int
	FalseNegatives int

	// Per-rule detection counts (a session can fire both).
	MismatchDetected int
	VolumeDetected   int
}

// DetectedShare is the fraction of sessions the detector would remove.
func (r Report) DetectedShare() float64 {
	if r.Sessions == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Sessions)
}

// TruthShare is the ground-truth proxied fraction.
func (r Report) TruthShare() float64 {
	if r.Sessions == 0 {
		return 0
	}
	return float64(r.TruthProxied) / float64(r.Sessions)
}

// Precision is TP/(TP+FP), defined as 1 when nothing was detected.
func (r Report) Precision() float64 {
	if r.Detected == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositives)
}

// Recall is TP/(TP+FN), defined as 1 when nothing was proxied.
func (r Report) Recall() float64 {
	if r.TruthProxied == 0 {
		return 1
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegatives)
}

// Evaluate scores verdicts (from Detect) against the sessions' ground
// truth. sessions and verdicts must be index-aligned.
func Evaluate(sessions []core.SessionRecord, verdicts []Verdict) Report {
	rep := Report{Sessions: len(sessions)}
	for i := range sessions {
		truth := sessions[i].Proxied
		det := verdicts[i].Suspected()
		if truth {
			rep.TruthProxied++
		}
		if det {
			rep.Detected++
			if verdicts[i].Mismatch {
				rep.MismatchDetected++
			}
			if verdicts[i].HighVolume {
				rep.VolumeDetected++
			}
		}
		switch {
		case det && truth:
			rep.TruePositives++
		case det && !truth:
			rep.FalsePositives++
		case !det && truth:
			rep.FalseNegatives++
		}
	}
	return rep
}

// Quantiles summarizes one metric's distribution with exact (sorted)
// order statistics — the ablation compares small filtered populations,
// where sketch error would drown the deltas.
type Quantiles struct {
	N             int
	P50, P90, P99 float64
}

// quantiles computes the summary, skipping NaNs (never-started startup).
func quantiles(xs []float64) Quantiles {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	q := Quantiles{N: len(vals)}
	if len(vals) == 0 {
		q.P50, q.P90, q.P99 = math.NaN(), math.NaN(), math.NaN()
		return q
	}
	q.P50 = stats.Quantile(vals, 0.50)
	q.P90 = stats.Quantile(vals, 0.90)
	q.P99 = stats.Quantile(vals, 0.99)
	return q
}

// Ablation is the filtered-vs-unfiltered comparison of §3: the QoE and
// path statistics over every session (proxies in, what the paper never
// reports) versus the sessions the detector keeps (proxies out, the
// paper's published view).
type Ablation struct {
	All  AblationSide
	Kept AblationSide
}

// AblationSide is one side's distribution summaries.
type AblationSide struct {
	SRTTCV       Quantiles
	StartupMS    Quantiles
	RebufferRate Quantiles
}

// Ablate computes the filtered-vs-unfiltered snapshot delta from the
// verdicts: Kept covers only sessions no rule fired on. sessions and
// verdicts must be index-aligned.
func Ablate(sessions []core.SessionRecord, verdicts []Verdict) Ablation {
	var allCV, allStart, allRebuf []float64
	var keptCV, keptStart, keptRebuf []float64
	for i := range sessions {
		s := &sessions[i]
		allCV = append(allCV, s.SRTTCV)
		allStart = append(allStart, s.StartupMS)
		allRebuf = append(allRebuf, s.RebufferRate)
		if !verdicts[i].Suspected() {
			keptCV = append(keptCV, s.SRTTCV)
			keptStart = append(keptStart, s.StartupMS)
			keptRebuf = append(keptRebuf, s.RebufferRate)
		}
	}
	return Ablation{
		All: AblationSide{
			SRTTCV:       quantiles(allCV),
			StartupMS:    quantiles(allStart),
			RebufferRate: quantiles(allRebuf),
		},
		Kept: AblationSide{
			SRTTCV:       quantiles(keptCV),
			StartupMS:    quantiles(keptStart),
			RebufferRate: quantiles(keptRebuf),
		},
	}
}
