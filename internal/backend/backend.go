// Package backend models the origin service behind the CDN. A cache miss
// at a CDN server triggers a backend request whose latency D_BE combines
// the WAN round trip from the PoP to the origin datacenter with the
// origin's own (lognormal) service time. The paper measures D_BE at the
// CDN and reports that misses raise median server latency from 2 ms to
// ~80 ms — a 40x penalty this model is calibrated to.
package backend

import (
	"math"

	"vidperf/internal/stats"
)

// The latency model's calibration, fitted to the miss curve of the
// paper's Fig. 5: a median D_BE of about 73 ms (WAN round trip plus the
// median service time), which with the CDN's own service time puts the
// median miss near the paper's ~80 ms.
const (
	// wanRTTMS is the PoP-to-origin network round trip, the floor of
	// every fetch.
	wanRTTMS = 45
	// serviceMedianMS is the origin's median service time.
	serviceMedianMS = 28
	// serviceSigma is the lognormal shape of the service time: a
	// moderately heavy tail, so Fig. 5's miss p99 sits near twice its
	// median.
	serviceSigma = 0.55
	// slowProb is the probability of a pathological origin stall, which
	// adds slowPenaltyMS: the rare multi-second misses of Fig. 5's tail.
	slowProb      = 0.002
	slowPenaltyMS = 800
)

// logServiceMedian is the service time's lognormal location, computed
// once rather than per fetch.
var logServiceMedian = math.Log(serviceMedianMS)

// Service is an origin latency sampler. It is not safe for concurrent use.
type Service struct {
	r *stats.Rand
}

// New builds a backend service model drawing from r.
func New(r *stats.Rand) *Service {
	return &Service{r: r}
}

// FetchLatencyMS samples one backend fetch's D_BE in milliseconds:
// WAN RTT + origin service time (+ rare stall).
func (s *Service) FetchLatencyMS() float64 {
	lat := wanRTTMS + s.r.LogNormal(logServiceMedian, serviceSigma)
	if s.r.Bool(slowProb) {
		lat += slowPenaltyMS
	}
	return lat
}
