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

// proxyMetricNames lists the proxy sketches in canonical order.
var proxyMetricNames = []string{
	MetricSRTTCVProxied, MetricSRTTCVClear,
	MetricStartupProxied, MetricStartupClear,
}

// enableProxy switches the accumulator into proxy mode. Call before the
// first ConsumeSession; the sketches are created eagerly so empty
// shards still merge and snapshot deterministically.
func (a *Accumulator) enableProxy() {
	a.proxy = true
	a.cvProxied = a.addSketch(MetricSRTTCVProxied)
	a.cvClear = a.addSketch(MetricSRTTCVClear)
	a.startupProxied = a.addSketch(MetricStartupProxied)
	a.startupClear = a.addSketch(MetricStartupClear)
}

// consumeProxy folds one finished session into the proxied-vs-direct
// aggregates. Proxied/ProxyCohort are the model's ground-truth labels —
// telemetry may read them (it is scoring infrastructure, not a
// detector); only internal/proxydetect is barred from them.
func (a *Accumulator) consumeProxy(s *core.SessionRecord) {
	cv, startup := a.cvClear, a.startupClear
	if s.Proxied {
		cv, startup = a.cvProxied, a.startupProxied
		a.counts[plainKey(CounterSessionsProxied)]++
		a.counts[counterKey{fam: famSessionsEgress, num: s.ProxyCohort}]++
	}
	if s.IPMismatch() {
		a.counts[plainKey(CounterSessionsIPMismatch)]++
	}
	cv.Add(s.SRTTCV)
	if !math.IsNaN(s.StartupMS) {
		startup.Add(s.StartupMS)
	}
}
