// Package analysis implements every §4 analysis in the paper: the
// server-side characterization (Figs. 4–6, the load-performance paradox,
// miss persistence), the network characterization (Figs. 7–16, Table 4),
// the download-stack methods (Figs. 17–18, Table 5), and the rendering
// analyses (Figs. 19–22). Each function consumes the proxy-filtered
// core.Dataset and returns a plain result struct the figures package
// renders and the benches assert on.
package analysis

import (
	"math"
	"sort"

	"vidperf/internal/core"
	"vidperf/internal/stats"
)

// QoEVsFirstChunkMetric is the shared shape of Figs. 4 and 7: startup time
// binned by a first-chunk metric.
type QoEVsFirstChunkMetric struct {
	Bins []stats.BinStat // x in ms, y in seconds
}

// StartupVsServerLatency reproduces Fig. 4: per-session startup time as a
// function of the first chunk's server-side latency (D_CDN + D_BE), binned
// at binMS over [0, maxMS).
func StartupVsServerLatency(d *core.Dataset, binMS, maxMS float64) QoEVsFirstChunkMetric {
	xs, ys := firstChunkXY(d, func(c *core.ChunkRecord) float64 { return c.ServerLatencyMS() })
	return QoEVsFirstChunkMetric{Bins: stats.BinnedStats(xs, ys, 0, maxMS, binMS)}
}

// StartupVsSRTT reproduces Fig. 7: startup time vs the first chunk's SRTT.
func StartupVsSRTT(d *core.Dataset, binMS, maxMS float64) QoEVsFirstChunkMetric {
	xs, ys := firstChunkXY(d, func(c *core.ChunkRecord) float64 { return c.SRTTms })
	return QoEVsFirstChunkMetric{Bins: stats.BinnedStats(xs, ys, 0, maxMS, binMS)}
}

func firstChunkXY(d *core.Dataset, metric func(*core.ChunkRecord) float64) (xs, ys []float64) {
	for i := range d.Chunks {
		c := &d.Chunks[i]
		if c.ChunkID != 0 {
			continue
		}
		s := d.Session(c.SessionID)
		if s == nil || math.IsNaN(s.StartupMS) {
			continue
		}
		xs = append(xs, metric(c))
		ys = append(ys, s.StartupMS/1000)
	}
	return xs, ys
}

// CDNLatencyBreakdown reproduces Fig. 5: CDFs of Dwait, Dopen, Dread over
// all chunks, plus total server latency split by cache hit/miss.
type CDNLatencyBreakdown struct {
	Dwait, Dopen, Dread  *stats.ECDF
	TotalHit, TotalMiss  *stats.ECDF
	MedianHitMS          float64
	MedianMissMS         float64
	RetryTimerChunkShare float64 // fraction of chunks delayed by the retry timer
}

// BreakdownCDNLatency computes Fig. 5 and its headline calibration numbers
// (median hit 2 ms vs miss 80 ms; ~35% of chunks hitting the retry timer).
func BreakdownCDNLatency(d *core.Dataset) CDNLatencyBreakdown {
	n := len(d.Chunks)
	wait, open, read := make([]float64, 0, n), make([]float64, 0, n), make([]float64, 0, n)
	var hit, miss []float64
	retries := 0
	for i := range d.Chunks {
		c := &d.Chunks[i]
		wait = append(wait, c.DwaitMS)
		open = append(open, c.DopenMS)
		read = append(read, c.DreadMS)
		if c.CacheHit {
			hit = append(hit, c.ServerLatencyMS())
		} else {
			miss = append(miss, c.ServerLatencyMS())
		}
		if c.RetryTimer {
			retries++
		}
	}
	out := CDNLatencyBreakdown{
		Dwait: stats.NewECDF(wait), Dopen: stats.NewECDF(open), Dread: stats.NewECDF(read),
		TotalHit: stats.NewECDF(hit), TotalMiss: stats.NewECDF(miss),
	}
	out.MedianHitMS, out.MedianMissMS = out.TotalHit.Quantile(0.5), out.TotalMiss.Quantile(0.5)
	if n > 0 {
		out.RetryTimerChunkShare = float64(retries) / float64(n)
	}
	return out
}

// PopularityPoint is one rank-threshold row of Fig. 6.
type PopularityPoint struct {
	RankMin           int // videos with rank >= RankMin
	Chunks            int
	MissPct           float64 // Fig. 6a
	MedianHitServerMS float64 // Fig. 6b (cache misses excluded)
}

// PerformanceVsPopularity reproduces Fig. 6: cache-miss percentage and
// median hit-side server delay as a function of video-rank threshold.
func PerformanceVsPopularity(d *core.Dataset, thresholds []int) []PopularityPoint {
	type agg struct {
		miss, total int
		hitLat      []float64
	}
	perRank := map[int]*agg{}
	maxRank := 0
	for i := range d.Chunks {
		c := &d.Chunks[i]
		s := d.Session(c.SessionID)
		if s == nil {
			continue
		}
		a := perRank[s.VideoRank]
		if a == nil {
			a = &agg{}
			perRank[s.VideoRank] = a
		}
		a.total++
		if c.CacheHit {
			a.hitLat = append(a.hitLat, c.ServerLatencyMS())
		} else {
			a.miss++
		}
		if s.VideoRank > maxRank {
			maxRank = s.VideoRank
		}
	}
	var out []PopularityPoint
	for _, th := range thresholds {
		var p PopularityPoint
		p.RankMin = th
		var lat []float64
		for rank, a := range perRank {
			if rank < th {
				continue
			}
			p.Chunks += a.total
			p.MissPct += float64(a.miss)
			lat = append(lat, a.hitLat...)
		}
		if p.Chunks > 0 {
			p.MissPct = p.MissPct / float64(p.Chunks) * 100
		}
		p.MedianHitServerMS = stats.Median(lat)
		out = append(out, p)
	}
	return out
}

// MissPersistence quantifies §4.1 finding 2: cache misses and slow reads
// cluster within sessions.
type MissPersistence struct {
	// MeanMissRatioGivenMiss is the mean per-session miss ratio among
	// sessions with at least one miss (paper: mean 60%, median 67%).
	MeanMissRatioGivenMiss   float64
	MedianMissRatioGivenMiss float64
	// MeanHighReadRatioGivenHigh mirrors the read-latency clustering
	// (chunks with Dread > 10 ms; paper: mean and median 60%).
	MeanHighReadRatioGivenHigh   float64
	MedianHighReadRatioGivenHigh float64
	SessionsWithMiss             int
}

// ComputeMissPersistence aggregates per-session clustering of misses and
// slow reads, taking sessions in dataset order so the means are
// reproducible.
func ComputeMissPersistence(d *core.Dataset) MissPersistence {
	var missRatios, highRatios []float64
	for _, chunks := range d.SessionChunks() {
		miss, high := 0, 0
		for i := range chunks {
			c := &chunks[i]
			if !c.CacheHit {
				miss++
			}
			if c.DreadMS > 10 {
				high++
			}
		}
		n := float64(len(chunks))
		if miss > 0 {
			missRatios = append(missRatios, float64(miss)/n)
		}
		if high > 0 {
			highRatios = append(highRatios, float64(high)/n)
		}
	}
	return MissPersistence{
		MeanMissRatioGivenMiss:       stats.Mean(missRatios),
		MedianMissRatioGivenMiss:     stats.Median(missRatios),
		MeanHighReadRatioGivenHigh:   stats.Mean(highRatios),
		MedianHighReadRatioGivenHigh: stats.Median(highRatios),
		SessionsWithMiss:             len(missRatios),
	}
}

// ServerLoadPoint is one server's load/performance sample for the §4.1
// load-performance paradox.
type ServerLoadPoint struct {
	ServerID int
	Requests int64
	MeanDCDN float64
}

// LoadParadox reports the per-server (requests, mean D_CDN) relation; the
// cache-focused mapping makes busier servers (hot content) *faster*, so
// the rank correlation should be negative.
type LoadParadox struct {
	Points      []ServerLoadPoint
	Correlation float64 // Pearson correlation between load and latency
}

// ComputeLoadParadox aggregates per-server request counts and mean D_CDN
// from the chunk records. The correlation sums servers in ServerID order,
// and Points are ordered by Requests descending, then ServerID, so the
// result is reproducible.
func ComputeLoadParadox(d *core.Dataset) LoadParadox {
	type agg struct {
		n   int64
		sum float64
	}
	per := map[int]*agg{}
	for i := range d.Chunks {
		c := &d.Chunks[i]
		s := d.Session(c.SessionID)
		if s == nil {
			continue
		}
		a := per[s.ServerID]
		if a == nil {
			a = &agg{}
			per[s.ServerID] = a
		}
		a.n++
		a.sum += c.DCDNms()
	}
	ids := make([]int, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out LoadParadox
	xs, ys := make([]float64, 0, len(ids)), make([]float64, 0, len(ids))
	for _, id := range ids {
		a := per[id]
		p := ServerLoadPoint{ServerID: id, Requests: a.n, MeanDCDN: a.sum / float64(a.n)}
		out.Points = append(out.Points, p)
		xs = append(xs, float64(a.n))
		ys = append(ys, p.MeanDCDN)
	}
	out.Correlation = pearson(xs, ys)
	sort.SliceStable(out.Points, func(i, j int) bool { return out.Points[i].Requests > out.Points[j].Requests })
	return out
}

func pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
