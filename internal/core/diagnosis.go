package core

import (
	"math"

	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
)

// OutlierReport is the result of the Eq. 4 download-stack outlier
// detection over one session.
type OutlierReport struct {
	// Outliers holds indices (into the session's chunk slice) of chunks
	// flagged as buffered by the client download stack.
	Outliers []int
}

// DetectStackOutliers implements the paper's Eq. 4 screening over one
// session's chunks: a chunk is a download-stack outlier when its
// first-byte delay AND instantaneous throughput are both extreme
// (> mean + 2σ) while network and server-side metrics stay ordinary
// (< mean + σ). The method needs a handful of chunks to estimate the
// session's own baseline; sessions shorter than minChunks return nothing.
func DetectStackOutliers(chunks []ChunkRecord) OutlierReport {
	const minChunks = 5
	var rep OutlierReport
	if len(chunks) < minChunks {
		return rep
	}
	var dfb, tp, srtt, server, cwnd stats.Summary
	for i := range chunks {
		dfb.Add(chunks[i].DFBms)
		tp.Add(chunks[i].InstantThroughputKbps())
		srtt.Add(chunks[i].SRTTms)
		server.Add(chunks[i].ServerLatencyMS())
		cwnd.Add(float64(chunks[i].CWND))
	}
	for i := range chunks {
		c := &chunks[i]
		if c.DFBms <= dfb.Mean()+2*dfb.Std() {
			continue
		}
		if c.InstantThroughputKbps() <= tp.Mean()+2*tp.Std() {
			continue
		}
		if c.SRTTms > srtt.Mean()+srtt.Std() {
			continue
		}
		if c.ServerLatencyMS() > server.Mean()+server.Std() {
			continue
		}
		if float64(c.CWND) > cwnd.Mean()+cwnd.Std() {
			continue
		}
		rep.Outliers = append(rep.Outliers, i)
	}
	return rep
}

// EstimateDDSms implements the paper's Eq. 5 conservative lower bound on a
// chunk's download-stack latency:
//
//	D_DS >= D_FB − D_CDN − D_BE − RTO,  RTO = 200ms + srtt + 4·srttvar.
//
// Negative estimates clamp to zero (no evidence of stack latency).
func EstimateDDSms(c ChunkRecord) float64 {
	est := c.DFBms - c.DCDNms() - c.DBEms - tcpmodel.RTOPaperms(c.SRTTms, c.SRTTVarMS)
	if est < 0 || math.IsNaN(est) {
		return 0
	}
	return est
}

// LatencyShare returns D_FB/(D_FB+D_LB) for a chunk — the paper's measure
// of whether latency or throughput dominates its delivery time.
func LatencyShare(c ChunkRecord) float64 {
	total := c.DFBms + c.DLBms
	if total <= 0 {
		return 0
	}
	return c.DFBms / total
}

// SessionChunkStats derives the per-session aggregates §4.2 uses from the
// chunk records: baseline RTT, loss, and first-chunk behaviour.
type SessionChunkStats struct {
	BaselineRTTms float64 // min over per-chunk baseline samples
	TotalSent     int
	TotalLost     int
	FirstLossRate float64 // loss rate of chunk 0
	AnyLoss       bool
}

// ComputeSessionChunkStats aggregates one session's chunks.
func ComputeSessionChunkStats(chunks []ChunkRecord) SessionChunkStats {
	out := SessionChunkStats{BaselineRTTms: math.Inf(1)}
	for i := range chunks {
		c := &chunks[i]
		if b := c.BaselineRTTSampleMS(); b > 0 && b < out.BaselineRTTms {
			out.BaselineRTTms = b
		}
		out.TotalSent += c.SegsSent
		out.TotalLost += c.SegsLost
		if c.ChunkID == 0 {
			out.FirstLossRate = c.LossRate()
		}
		if c.SegsLost > 0 {
			out.AnyLoss = true
		}
	}
	if math.IsInf(out.BaselineRTTms, 1) {
		out.BaselineRTTms = 0
	}
	return out
}

// RetxRate returns the session-wide retransmission rate.
func (s SessionChunkStats) RetxRate() float64 {
	if s.TotalSent == 0 {
		return 0
	}
	return float64(s.TotalLost) / float64(s.TotalSent)
}
