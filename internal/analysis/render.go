package analysis

import (
	"sort"

	"vidperf/internal/core"
	"vidperf/internal/stats"
)

// DropsVsRate reproduces Fig. 19: percent dropped frames binned by chunk
// download rate (sec/sec), software-rendered visible chunks only, plus the
// hardware-rendering reference bar.
type DropsVsRate struct {
	Bins            []stats.BinStat // x = sec/sec, y = dropped %
	HardwareMeanPct float64         // the figure's first bar
}

// ComputeDropsVsRate builds Fig. 19 with the given bin width over [0, max).
func ComputeDropsVsRate(d *core.Dataset, binWidth, maxRate float64) DropsVsRate {
	var xs, ys []float64
	var hw stats.Summary
	for i := range d.Chunks {
		c := &d.Chunks[i]
		if !c.Visible || c.TotalFrames == 0 {
			continue
		}
		if c.HardwareRender {
			hw.Add(c.DroppedFrac() * 100)
			continue
		}
		xs = append(xs, c.DownloadRateSecPerSec())
		ys = append(ys, c.DroppedFrac()*100)
	}
	return DropsVsRate{
		Bins:            stats.BinnedStats(xs, ys, 0, maxRate, binWidth),
		HardwareMeanPct: hw.Mean(),
	}
}

// RateHypothesisReport quantifies §4.4-1's 1.5 sec/sec rule: the share of
// chunks confirming the hypothesis (bad framerate iff rate < 1.5), plus
// the two explained exception classes.
type RateHypothesisReport struct {
	ConfirmShare     float64 // paper: 85.5%
	LowRateGoodShare float64 // paper: 5.7% (buffer hides the shortfall)
	HighRateBadShare float64 // paper: 6.9% (CPU overload etc.)
	Chunks           int
}

// CheckRateHypothesis classifies software-rendered visible chunks by the
// (rate >= 1.5, dropped > 30%) quadrants.
func CheckRateHypothesis(d *core.Dataset) RateHypothesisReport {
	var confirm, lowGood, highBad, n int
	for i := range d.Chunks {
		c := &d.Chunks[i]
		if !c.Visible || c.TotalFrames == 0 || c.HardwareRender {
			continue
		}
		n++
		lowRate := c.DownloadRateSecPerSec() < 1.5
		badFrames := c.DroppedFrac() > 0.30
		switch {
		case lowRate && badFrames, !lowRate && !badFrames:
			confirm++
		case lowRate && !badFrames:
			lowGood++
		default:
			highBad++
		}
	}
	out := RateHypothesisReport{Chunks: n}
	if n > 0 {
		out.ConfirmShare = float64(confirm) / float64(n)
		out.LowRateGoodShare = float64(lowGood) / float64(n)
		out.HighRateBadShare = float64(highBad) / float64(n)
	}
	return out
}

// BrowserRenderRow is one bar pair of Fig. 21: a browser's share of the
// platform's chunks and its mean dropped-frame percentage.
type BrowserRenderRow struct {
	OS         string
	Browser    string
	ChunkShare float64 // % of the platform's chunks
	DroppedPct float64 // mean % dropped among visible chunks
	Chunks     int
}

// ComputeBrowserRendering builds Fig. 21 for the two major platforms.
func ComputeBrowserRendering(d *core.Dataset) []BrowserRenderRow {
	type agg struct {
		chunks  int
		dropSum float64
		dropN   int
	}
	per := map[[2]string]*agg{}
	platformTotals := map[string]int{}
	for i := range d.Chunks {
		c := &d.Chunks[i]
		s := d.Session(c.SessionID)
		if s == nil || (s.OS != "Windows" && s.OS != "Mac") {
			continue
		}
		k := [2]string{s.OS, s.Browser}
		a := per[k]
		if a == nil {
			a = &agg{}
			per[k] = a
		}
		a.chunks++
		platformTotals[s.OS]++
		if c.Visible && c.TotalFrames > 0 {
			a.dropSum += c.DroppedFrac() * 100
			a.dropN++
		}
	}
	var rows []BrowserRenderRow
	for k, a := range per {
		row := BrowserRenderRow{OS: k[0], Browser: k[1], Chunks: a.chunks}
		if t := platformTotals[k[0]]; t > 0 {
			row.ChunkShare = float64(a.chunks) / float64(t) * 100
		}
		if a.dropN > 0 {
			row.DroppedPct = a.dropSum / float64(a.dropN)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].OS != rows[j].OS {
			return rows[i].OS < rows[j].OS
		}
		// Rows come from a map: equal shares are ordered by name, or
		// the table's order would change from run to run.
		if rows[i].ChunkShare != rows[j].ChunkShare {
			return rows[i].ChunkShare > rows[j].ChunkShare
		}
		return rows[i].Browser < rows[j].Browser
	})
	return rows
}

// UnpopularBrowserRow is one bar of Fig. 22.
type UnpopularBrowserRow struct {
	Label      string // "Browser,OS"
	DroppedPct float64
	Chunks     int
}

// UnpopularBrowserReport is Fig. 22: dropped % for unpopular browsers on
// well-provisioned chunks (rate >= 1.5, visible), against the popular-
// browser average.
type UnpopularBrowserReport struct {
	Rows        []UnpopularBrowserRow
	RestAverage float64 // "Average in the rest"
}

// ComputeUnpopularBrowsers builds Fig. 22 (browsers with >= minChunks
// qualifying chunks).
func ComputeUnpopularBrowsers(d *core.Dataset, minChunks int) UnpopularBrowserReport {
	if minChunks == 0 {
		minChunks = 500
	}
	type agg struct {
		sum float64
		n   int
	}
	per := map[[2]string]*agg{}
	var rest stats.Summary
	for i := range d.Chunks {
		c := &d.Chunks[i]
		if !c.Visible || c.TotalFrames == 0 || c.HardwareRender {
			continue
		}
		if c.DownloadRateSecPerSec() < 1.5 {
			continue
		}
		s := d.Session(c.SessionID)
		if s == nil {
			continue
		}
		if s.PopularBrowser {
			rest.Add(c.DroppedFrac() * 100)
			continue
		}
		k := [2]string{s.Browser, s.OS}
		a := per[k]
		if a == nil {
			a = &agg{}
			per[k] = a
		}
		a.sum += c.DroppedFrac() * 100
		a.n++
	}
	var rows []UnpopularBrowserRow
	for k, a := range per {
		if a.n < minChunks {
			continue
		}
		rows = append(rows, UnpopularBrowserRow{
			Label:      k[0] + "," + k[1],
			DroppedPct: a.sum / float64(a.n),
			Chunks:     a.n,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].DroppedPct > rows[j].DroppedPct })
	return UnpopularBrowserReport{Rows: rows, RestAverage: rest.Mean()}
}

// BitrateRenderingRow supports §4.4-2 (higher bitrates show *better*
// rendering in the wild because they ride better connections).
type BitrateRenderingRow struct {
	HighBitrate bool // >= 1 Mbps
	MeanDropPct float64
	MeanSRTTVar float64
	MeanRetxPct float64
	Chunks      int
}

// ComputeBitrateRenderingParadox splits software-rendered visible chunks
// at 1 Mbps and reports rendering quality alongside the confounders the
// paper identifies (SRTT variation and retransmission rate).
func ComputeBitrateRenderingParadox(d *core.Dataset) [2]BitrateRenderingRow {
	var out [2]BitrateRenderingRow
	var drop, srttvar, retx [2]stats.Summary
	for i := range d.Chunks {
		c := &d.Chunks[i]
		if !c.Visible || c.TotalFrames == 0 || c.HardwareRender {
			continue
		}
		idx := 0
		if c.BitrateKbps >= 1000 {
			idx = 1
		}
		drop[idx].Add(c.DroppedFrac() * 100)
		srttvar[idx].Add(c.SRTTVarMS)
		retx[idx].Add(c.LossRate() * 100)
	}
	for idx := 0; idx < 2; idx++ {
		out[idx] = BitrateRenderingRow{
			HighBitrate: idx == 1,
			MeanDropPct: drop[idx].Mean(),
			MeanSRTTVar: srttvar[idx].Mean(),
			MeanRetxPct: retx[idx].Mean(),
			Chunks:      drop[idx].N(),
		}
	}
	return out
}
