package analysis

import (
	"math"
	"sort"

	"vidperf/internal/core"
	"vidperf/internal/stats"
)

// LatencyDistributions reproduces Fig. 8: per-session baseline latency
// (srtt_min) and latency variation (σ_srtt) CDFs.
type LatencyDistributions struct {
	SRTTMin *stats.ECDF
	SRTTStd *stats.ECDF
}

// ComputeLatencyDistributions builds Fig. 8 from the session summaries.
func ComputeLatencyDistributions(d *core.Dataset) LatencyDistributions {
	var mins, stds []float64
	for i := range d.Sessions {
		s := &d.Sessions[i]
		if s.SRTTMinMS > 0 {
			mins = append(mins, s.SRTTMinMS)
		}
		stds = append(stds, s.SRTTStdMS)
	}
	return LatencyDistributions{SRTTMin: stats.NewECDF(mins), SRTTStd: stats.NewECDF(stds)}
}

// TailPrefixReport reproduces Fig. 9 and its surrounding analysis: /24
// prefixes whose baseline latency exceeds tailMS, their US/non-US split,
// the distance CDF for the US ones, and the organization mix of close-by
// US tail prefixes.
type TailPrefixReport struct {
	TailPrefixes           int
	NonUSShare             float64
	USDistanceCDF          *stats.ECDF // km, Fig. 9
	CloseUSCount           int         // US tail prefixes within CloseKM of the PoP
	CloseUSEnterpriseShare float64
	CloseKM                float64
}

// ComputeTailPrefixes aggregates sessions into prefixes (overcoming
// last-mile noise, as §4.2 argues), takes the minimum per-chunk baseline
// RTT per prefix, and characterizes the prefixes above tailMS.
func ComputeTailPrefixes(d *core.Dataset, tailMS, closeKM float64) TailPrefixReport {
	type pref struct {
		min        float64
		us         bool
		dist       float64
		enterprise bool
		sessions   int
	}
	byPrefix := map[int]*pref{}
	spans := d.SessionChunks()
	for i := range d.Sessions {
		s := &d.Sessions[i]
		cs := core.ComputeSessionChunkStats(spans[i])
		p := byPrefix[s.PrefixID]
		if p == nil {
			p = &pref{min: math.Inf(1), us: s.US, dist: s.DistanceKM,
				enterprise: s.OrgType == "enterprise"}
			byPrefix[s.PrefixID] = p
		}
		p.sessions++
		if cs.BaselineRTTms > 0 && cs.BaselineRTTms < p.min {
			p.min = cs.BaselineRTTms
		}
	}
	out := TailPrefixReport{CloseKM: closeKM}
	var usDist []float64
	nonUS, closeEnterprise := 0, 0
	for _, p := range byPrefix {
		// The paper aggregates to prefixes precisely because one session's
		// samples can be inflated end to end; demand at least two sessions
		// so a single congested visit cannot fake a persistent problem.
		if p.sessions < 2 {
			continue
		}
		if math.IsInf(p.min, 1) || p.min <= tailMS {
			continue
		}
		out.TailPrefixes++
		if !p.us {
			nonUS++
			continue
		}
		usDist = append(usDist, p.dist)
		if p.dist <= closeKM {
			out.CloseUSCount++
			if p.enterprise {
				closeEnterprise++
			}
		}
	}
	if out.TailPrefixes > 0 {
		out.NonUSShare = float64(nonUS) / float64(out.TailPrefixes)
	}
	if out.CloseUSCount > 0 {
		out.CloseUSEnterpriseShare = float64(closeEnterprise) / float64(out.CloseUSCount)
	}
	out.USDistanceCDF = stats.NewECDF(usDist)
	return out
}

// PathVariationReport reproduces Fig. 10: the CDF of CV(srtt) across
// (prefix, PoP) paths, using each session's mean SRTT as one sample.
type PathVariationReport struct {
	CVs         *stats.ECDF
	HighCVShare float64 // fraction of paths with CV > 1 (paper: ~40%)
	Paths       int
}

// ComputePathVariation groups sessions by (prefix, PoP) and computes the
// coefficient of variation of their mean SRTTs.
func ComputePathVariation(d *core.Dataset, minSessions int) PathVariationReport {
	if minSessions < 2 {
		minSessions = 2
	}
	type key struct{ prefix, pop int }
	groups := map[key][]float64{}
	for i := range d.Sessions {
		s := &d.Sessions[i]
		if s.SRTTMeanMS > 0 {
			k := key{s.PrefixID, s.PoP}
			groups[k] = append(groups[k], s.SRTTMeanMS)
		}
	}
	var cvs []float64
	high := 0
	for _, xs := range groups {
		if len(xs) < minSessions {
			continue
		}
		cv := stats.CV(xs)
		if math.IsNaN(cv) {
			continue
		}
		cvs = append(cvs, cv)
		if cv > 1 {
			high++
		}
	}
	out := PathVariationReport{CVs: stats.NewECDF(cvs), Paths: len(cvs)}
	if len(cvs) > 0 {
		out.HighCVShare = float64(high) / float64(len(cvs))
	}
	return out
}

// OrgVariability is one row of Table 4.
type OrgVariability struct {
	OrgName    string
	HighCV     int // sessions with CV(SRTT) > 1
	Sessions   int
	Percentage float64
	Enterprise bool
}

// OrgVariabilityReport is Table 4 plus the residential baseline the paper
// quotes (~1% of sessions with CV > 1).
type OrgVariabilityReport struct {
	Top                  []OrgVariability
	ResidentialHighCVPct float64
}

// ComputeOrgVariability ranks organizations (>= minSessions sessions) by
// the share of sessions with within-session CV(SRTT) > 1.
func ComputeOrgVariability(d *core.Dataset, minSessions, topN int) OrgVariabilityReport {
	if minSessions == 0 {
		minSessions = 50
	}
	type agg struct {
		high, total int
		enterprise  bool
	}
	per := map[string]*agg{}
	resHigh, resTotal := 0, 0
	for i := range d.Sessions {
		s := &d.Sessions[i]
		a := per[s.OrgName]
		if a == nil {
			a = &agg{enterprise: s.OrgType == "enterprise"}
			per[s.OrgName] = a
		}
		a.total++
		high := s.SRTTCV > 1
		if high {
			a.high++
		}
		if s.OrgType == "residential" {
			resTotal++
			if high {
				resHigh++
			}
		}
	}
	var rows []OrgVariability
	for name, a := range per {
		if a.total < minSessions {
			continue
		}
		rows = append(rows, OrgVariability{
			OrgName: name, HighCV: a.high, Sessions: a.total,
			Percentage: float64(a.high) / float64(a.total) * 100,
			Enterprise: a.enterprise,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Percentage != rows[j].Percentage {
			return rows[i].Percentage > rows[j].Percentage
		}
		return rows[i].OrgName < rows[j].OrgName
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	out := OrgVariabilityReport{Top: rows}
	if resTotal > 0 {
		out.ResidentialHighCVPct = float64(resHigh) / float64(resTotal) * 100
	}
	return out
}
