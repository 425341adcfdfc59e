// Package abr implements the bitrate-adaptation algorithms the paper's
// sessions run and the variants its §4.3 take-aways discuss: a tuned
// hybrid (rate + buffer) production algorithm, a pure rate-based
// moving-average picker, a buffer-based (BBA-like) picker, a fixed-rate
// baseline, and estimator variants that either trust the client's
// instantaneous download throughput (vulnerable to download-stack
// buffering), exclude stack outliers, or use the server-side CWND/SRTT
// signal (Eq. 3).
package abr

import "vidperf/internal/stats"

// Context carries the signals available when choosing the next chunk's
// bitrate.
type Context struct {
	Ladder     []int // ascending kbps
	ChunkIndex int
	BufferSec  float64

	// LastChunkKbps is the previous chunk's client-observed instantaneous
	// throughput (chunk bits / D_LB) — inflated by stack buffering.
	LastChunkKbps float64
	// SmoothedKbps is the client's EWMA throughput estimate.
	SmoothedKbps float64
	// ServerKbps is the server-side Eq. 3 estimate MSS·CWND/SRTT.
	ServerKbps float64
	// StackOutlier marks the previous chunk as a detected download-stack
	// outlier (Eq. 4); outlier-aware estimators ignore its sample.
	StackOutlier bool
}

// Algorithm picks the bitrate for the next chunk.
type Algorithm interface {
	Name() string
	// Next returns a bitrate from ctx.Ladder.
	Next(ctx Context) int
}

// clampToLadder returns the highest rung <= kbps, or the lowest rung.
func clampToLadder(ladder []int, kbps float64) int {
	best := ladder[0]
	for _, b := range ladder {
		if float64(b) <= kbps {
			best = b
		}
	}
	return best
}

// Fixed always returns the same bitrate (clamped to the ladder).
type Fixed struct{ Kbps int }

// Name implements Algorithm.
func (f Fixed) Name() string { return "fixed" }

// Next implements Algorithm.
func (f Fixed) Next(ctx Context) int {
	return clampToLadder(ctx.Ladder, float64(f.Kbps))
}

// RateBased picks the top rung under a safety-scaled throughput estimate.
type RateBased struct {
	// Safety scales the estimate (default 0.8).
	Safety float64
	// UseInstantaneous trusts the last chunk's instantaneous throughput
	// instead of the smoothed estimate — the over-shooting failure mode
	// of §4.3.
	UseInstantaneous bool
	// ExcludeOutliers skips samples flagged as stack outliers
	// (the paper's recommendation 2).
	ExcludeOutliers bool
}

// Name implements Algorithm.
func (a RateBased) Name() string {
	switch {
	case a.UseInstantaneous && a.ExcludeOutliers:
		return "rate-instant-screened"
	case a.UseInstantaneous:
		return "rate-instant"
	case a.ExcludeOutliers:
		return "rate-smoothed-screened"
	default:
		return "rate-smoothed"
	}
}

// Next implements Algorithm.
func (a RateBased) Next(ctx Context) int {
	safety := a.Safety
	if safety == 0 {
		safety = 0.8
	}
	if ctx.ChunkIndex == 0 {
		return startRung(ctx.Ladder)
	}
	est := ctx.SmoothedKbps
	if a.UseInstantaneous {
		est = ctx.LastChunkKbps
	}
	if a.ExcludeOutliers && ctx.StackOutlier {
		// Ignore the poisoned sample; fall back to the smoothed view.
		est = ctx.SmoothedKbps
		if a.UseInstantaneous {
			// Even the smoothed estimate absorbed the outlier; damp it.
			est = ctx.SmoothedKbps * 0.9
		}
	}
	return clampToLadder(ctx.Ladder, est*safety)
}

// ServerSignal is the paper's recommendation 1: rate adaptation driven by
// the server-side CWND/SRTT throughput estimate, immune to client stack
// distortion.
type ServerSignal struct{ Safety float64 }

// Name implements Algorithm.
func (ServerSignal) Name() string { return "server-signal" }

// Next implements Algorithm.
func (a ServerSignal) Next(ctx Context) int {
	safety := a.Safety
	if safety == 0 {
		safety = 0.8
	}
	if ctx.ChunkIndex == 0 || ctx.ServerKbps <= 0 {
		return startRung(ctx.Ladder)
	}
	return clampToLadder(ctx.Ladder, ctx.ServerKbps*safety)
}

// BufferBased maps buffer occupancy linearly onto the ladder between a
// reservoir and a cushion (after Huang et al.'s BBA).
type BufferBased struct {
	ReservoirSec float64 // below: minimum rate (default 10)
	CushionSec   float64 // above: maximum rate (default 30)
}

// Name implements Algorithm.
func (BufferBased) Name() string { return "buffer-based" }

// Next implements Algorithm.
func (a BufferBased) Next(ctx Context) int {
	res, cus := a.ReservoirSec, a.CushionSec
	if res == 0 {
		res = 10
	}
	if cus == 0 {
		cus = 30
	}
	if ctx.BufferSec <= res {
		return ctx.Ladder[0]
	}
	if ctx.BufferSec >= cus {
		return ctx.Ladder[len(ctx.Ladder)-1]
	}
	frac := (ctx.BufferSec - res) / (cus - res)
	idx := int(frac * float64(len(ctx.Ladder)-1))
	return ctx.Ladder[idx]
}

// Hybrid is the tuned production algorithm: a screened, smoothed rate
// estimate bounded by buffer state — conservative at startup and when the
// buffer is shallow, aggressive when deep. This is the default the
// simulated sessions run.
type Hybrid struct {
	Safety       float64 // default 0.85
	LowBufferSec float64 // below: step down one rung (default 8)
	HighBuffer   float64 // above: allow one rung above estimate (default 25)
}

// Name implements Algorithm.
func (Hybrid) Name() string { return "hybrid" }

// Next implements Algorithm.
func (a Hybrid) Next(ctx Context) int {
	safety := a.Safety
	if safety == 0 {
		safety = 0.85
	}
	low, high := a.LowBufferSec, a.HighBuffer
	if low == 0 {
		low = 8
	}
	if high == 0 {
		high = 25
	}
	if ctx.ChunkIndex == 0 {
		return startRung(ctx.Ladder)
	}
	est := ctx.SmoothedKbps
	if ctx.StackOutlier {
		est *= 0.9 // damp the poisoned EWMA
	}
	pick := clampToLadder(ctx.Ladder, est*safety)
	idx := ladderIndex(ctx.Ladder, pick)
	switch {
	case ctx.BufferSec < 4:
		// Panic: the buffer is nearly dry — refill at the bottom rung
		// rather than stall again (production players do exactly this).
		idx = 0
	case ctx.BufferSec < low:
		idx -= 2
		if idx < 0 {
			idx = 0
		}
	case ctx.BufferSec > high && idx < len(ctx.Ladder)-1:
		idx++
	}
	return ctx.Ladder[idx]
}

// startRung is the conservative initial bitrate (second rung): low enough
// to start fast, high enough to avoid a guaranteed upswitch.
func startRung(ladder []int) int {
	if len(ladder) > 1 {
		return ladder[1]
	}
	return ladder[0]
}

func ladderIndex(ladder []int, kbps int) int {
	for i, b := range ladder {
		if b == kbps {
			return i
		}
	}
	return 0
}

// Estimator maintains the client-side throughput EWMA the rate-based
// algorithms consume (the "moving average of previous N chunks" of §4.3).
type Estimator struct {
	ewma stats.EWMA
}

// NewEstimator returns an estimator with smoothing factor alpha
// (default 0.3 when alpha <= 0).
func NewEstimator(alpha float64) Estimator {
	if alpha <= 0 {
		alpha = 0.3
	}
	return Estimator{ewma: stats.EWMA{Alpha: alpha}}
}

// Observe folds one chunk's instantaneous throughput sample in.
func (e *Estimator) Observe(kbps float64) { e.ewma.Update(kbps) }

// Kbps returns the smoothed estimate, or 0 before any sample.
func (e *Estimator) Kbps() float64 {
	if !e.ewma.Initialized() {
		return 0
	}
	return e.ewma.Value()
}
