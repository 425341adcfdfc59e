package analysis

import (
	"sort"

	"vidperf/internal/core"
	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
)

// StackOutlierReport summarizes the Eq. 4 screening across the dataset
// (§4.3 finding 1: 0.32% of chunks, 3.1% of sessions).
type StackOutlierReport struct {
	OutlierChunks   int
	TotalChunks     int
	OutlierSessions int
	TotalSessions   int
	ChunkShare      float64
	SessionShare    float64

	// Validation against model ground truth (only meaningful for
	// simulated traces): how many flagged chunks are true transients and
	// how many true transients were found.
	TruePositives int
	TruthTotal    int
}

// DetectStackOutliersDataset runs the per-session Eq. 4 screen over every
// session.
func DetectStackOutliersDataset(d *core.Dataset) StackOutlierReport {
	rep := StackOutlierReport{TotalChunks: len(d.Chunks), TotalSessions: len(d.Sessions)}
	for _, chunks := range d.SessionChunks() {
		res := core.DetectStackOutliers(chunks)
		if len(res.Outliers) > 0 {
			rep.OutlierSessions++
			rep.OutlierChunks += len(res.Outliers)
			for _, i := range res.Outliers {
				if chunks[i].TruthTransient {
					rep.TruePositives++
				}
			}
		}
	}
	for i := range d.Chunks {
		if d.Chunks[i].TruthTransient {
			rep.TruthTotal++
		}
	}
	if rep.TotalChunks > 0 {
		rep.ChunkShare = float64(rep.OutlierChunks) / float64(rep.TotalChunks)
	}
	if rep.TotalSessions > 0 {
		rep.SessionShare = float64(rep.OutlierSessions) / float64(rep.TotalSessions)
	}
	return rep
}

// PlatformDDS is one row of Table 5: mean estimated download-stack latency
// for an (OS, browser) pair, over chunks with a non-zero Eq. 5 estimate.
type PlatformDDS struct {
	Browser string
	OS      string
	MeanDDS float64
	Chunks  int
}

// PersistentStackReport is Table 5 plus the §4.3-2 aggregates.
type PersistentStackReport struct {
	Top []PlatformDDS
	// NonZeroShare is the fraction of chunks with a non-zero Eq. 5
	// estimate (paper: 17.6%).
	NonZeroShare float64
	// DominantShare is, among chunks with non-zero D_DS, the fraction
	// where the stack is the largest D_FB component (paper: 84%).
	DominantShare float64
}

// ComputePersistentStack estimates D_DS per chunk via Eq. 5, aggregates by
// platform (>= minChunks chunks), and returns the Table 5 ranking.
func ComputePersistentStack(d *core.Dataset, minChunks, topN int) PersistentStackReport {
	if minChunks == 0 {
		minChunks = 200
	}
	type agg struct {
		sum float64
		n   int
	}
	per := map[[2]string]*agg{}
	nonZero, dominant := 0, 0
	for i := range d.Chunks {
		c := &d.Chunks[i]
		est := core.EstimateDDSms(*c)
		if est <= 0 {
			continue
		}
		nonZero++
		// Stack dominance: the D_DS estimate exceeds both the
		// (conservative) network allowance and the server latency.
		if est > tcpmodel.RTOPaperms(c.SRTTms, c.SRTTVarMS) && est > c.ServerLatencyMS() {
			dominant++
		}
		s := d.Session(c.SessionID)
		if s == nil {
			continue
		}
		k := [2]string{s.Browser, s.OS}
		a := per[k]
		if a == nil {
			a = &agg{}
			per[k] = a
		}
		a.sum += est
		a.n++
	}
	var rows []PlatformDDS
	for k, a := range per {
		if a.n < minChunks {
			continue
		}
		rows = append(rows, PlatformDDS{
			Browser: k[0], OS: k[1], MeanDDS: a.sum / float64(a.n), Chunks: a.n,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].MeanDDS > rows[j].MeanDDS })
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	out := PersistentStackReport{Top: rows}
	if len(d.Chunks) > 0 {
		out.NonZeroShare = float64(nonZero) / float64(len(d.Chunks))
	}
	if nonZero > 0 {
		out.DominantShare = float64(dominant) / float64(nonZero)
	}
	return out
}

// FirstChunkDFB reproduces Fig. 18: the D_FB distributions of first vs
// later chunks over a performance-equivalent set (no loss, grown window,
// no queueing, near-constant SRTT band, fast cache hits), isolating the
// first chunk's extra download-stack latency.
type FirstChunkDFB struct {
	First, Other   *stats.ECDF
	MedianGapMS    float64 // median(first) - median(other); paper ~300 ms
	FirstN, OtherN int
	SRTTBandMS     [2]float64
}

// EquivalentSetConfig selects Fig. 18's performance-equivalent chunks.
type EquivalentSetConfig struct {
	SRTTMinMS, SRTTMaxMS float64 // paper uses [60, 65)
	MaxDCDNms            float64 // paper: < 5 ms, cache hit
	MinCWND              int     // paper: > IW (10)
}

// ComputeFirstChunkDFB builds Fig. 18.
func ComputeFirstChunkDFB(d *core.Dataset, cfg EquivalentSetConfig) FirstChunkDFB {
	if cfg.SRTTMaxMS == 0 {
		cfg.SRTTMinMS, cfg.SRTTMaxMS = 60, 65
	}
	if cfg.MaxDCDNms == 0 {
		cfg.MaxDCDNms = 5
	}
	if cfg.MinCWND == 0 {
		cfg.MinCWND = 10
	}
	var first, other []float64
	for i := range d.Chunks {
		c := &d.Chunks[i]
		if c.SegsLost > 0 ||
			c.SRTTms < cfg.SRTTMinMS || c.SRTTms >= cfg.SRTTMaxMS ||
			!c.CacheHit || c.DCDNms() >= cfg.MaxDCDNms {
			continue
		}
		if c.ChunkID == 0 {
			first = append(first, c.DFBms)
		} else if c.CWND > cfg.MinCWND {
			other = append(other, c.DFBms)
		}
	}
	out := FirstChunkDFB{
		First: stats.NewECDF(first), Other: stats.NewECDF(other),
		FirstN: len(first), OtherN: len(other),
		SRTTBandMS: [2]float64{cfg.SRTTMinMS, cfg.SRTTMaxMS},
	}
	out.MedianGapMS = stats.Median(first) - stats.Median(other)
	return out
}

// DDSVsRebuffering reports the §4.3 QoE link: mean estimated D_DS rises
// with session re-buffering severity (paper: <100 ms for clean sessions,
// >500 ms beyond 10% re-buffering).
type DDSVsRebuffering struct {
	MeanDDSNoRebuf float64
	MeanDDSUnder10 float64
	MeanDDSOver10  float64
}

// ComputeDDSVsRebuffering groups sessions into no-rebuffering, <=10%, and
// >10% re-buffering and averages the Eq. 5 estimates of their chunks,
// folding them in dataset order so the means are reproducible.
func ComputeDDSVsRebuffering(d *core.Dataset) DDSVsRebuffering {
	var none, under, over stats.Summary
	for i, chunks := range d.SessionChunks() {
		s := &d.Sessions[i]
		var target *stats.Summary
		switch {
		case s.RebufCount == 0:
			target = &none
		case s.RebufferRate <= 0.10:
			target = &under
		default:
			target = &over
		}
		for j := range chunks {
			target.Add(core.EstimateDDSms(chunks[j]))
		}
	}
	return DDSVsRebuffering{
		MeanDDSNoRebuf: none.Mean(),
		MeanDDSUnder10: under.Mean(),
		MeanDDSOver10:  over.Mean(),
	}
}
