// proxy.go folds proxied-population QoE (internal/proxypop) into the
// streaming aggregates: the CV(SRTT) and startup distributions split by
// proxied vs direct sessions (the Fig. 9/Table 4 comparison), the
// proxied-session and IP-mismatch counters the §3 detector rates are
// judged against, and a per-egress-cohort session counter. Proxy mode
// is opt-in (Config.Proxy) with eagerly created sketches, so non-proxied
// snapshots carry not a byte of proxy state and proxied snapshots merge
// deterministically at any parallelism.
package telemetry

import (
	"math"

	"vidperf/internal/core"
)

// Metric names of the proxy-mode sketches: the per-session CV(SRTT) and
// startup distributions, split by ground-truth proxy placement.
const (
	MetricSRTTCVProxied  = "srtt_cv_proxied"
	MetricSRTTCVClear    = "srtt_cv_clear"
	MetricStartupProxied = "startup_proxied_ms"
	MetricStartupClear   = "startup_clear_ms"
)

// Proxy-mode counters: sessions behind a shared egress, and the subset
// whose beacon IP disagrees with the CDN-seen egress (§3 rule i
// evidence).
const (
	CounterSessionsProxied    = "sessions_proxied"
	CounterSessionsIPMismatch = "sessions_ip_mismatch"
)

// ProxyEgressDim is the dimension name per-cohort counters key on
// ("sessions_egress=00003").
const ProxyEgressDim = "egress"

// ProxyEgressSessionsKey returns the per-cohort session counter key.
func ProxyEgressSessionsKey(cohort int) string {
	return IntDimKey(CounterSessions, ProxyEgressDim, cohort)
}

// proxyMetricNames lists the proxy sketches in slab order.
var proxyMetricNames = [...]string{
	MetricSRTTCVProxied, MetricSRTTCVClear,
	MetricStartupProxied, MetricStartupClear,
}

// proxyFamily folds every finished session into the proxied-vs-direct
// aggregates.
type proxyFamily struct {
	counts                       map[counterKey]uint64
	fam                          counterFamily
	cvProxied, cvClear           *QuantileSketch
	startupProxied, startupClear *QuantileSketch
}

// newProxyFamily keeps the proxy sketches in sk, named by
// proxyMetricNames.
func newProxyFamily(a *Accumulator, sk []QuantileSketch) *proxyFamily {
	return &proxyFamily{
		counts:         a.counts,
		fam:            a.nextFamily(),
		cvProxied:      &sk[0],
		cvClear:        &sk[1],
		startupProxied: &sk[2],
		startupClear:   &sk[3],
	}
}

// consume reads Proxied/ProxyCohort, the model's ground-truth labels:
// telemetry may read them (it is scoring infrastructure, not a
// detector); only internal/proxydetect is barred from them.
func (f *proxyFamily) consume(s core.SessionRecord, _ []core.ChunkRecord) {
	cv, startup := f.cvClear, f.startupClear
	if s.Proxied {
		cv, startup = f.cvProxied, f.startupProxied
		f.counts[plainKey(CounterSessionsProxied)]++
		f.counts[counterKey{fam: f.fam, num: s.ProxyCohort}]++
	}
	if s.IPMismatch() {
		f.counts[plainKey(CounterSessionsIPMismatch)]++
	}
	cv.Add(s.SRTTCV)
	if !math.IsNaN(s.StartupMS) {
		startup.Add(s.StartupMS)
	}
}

func (f *proxyFamily) counterName(k counterKey) string { return ProxyEgressSessionsKey(k.num) }

func (f *proxyFamily) annotate(*Snapshot) {}
