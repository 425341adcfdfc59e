package backend

import (
	"math"
	"testing"

	"vidperf/internal/stats"
)

// TestDefaults pins the calibration the Fig. 5 miss curve rests on.
func TestDefaults(t *testing.T) {
	if wanRTTMS != 45 || serviceMedianMS != 28 || serviceSigma != 0.55 ||
		slowProb != 0.002 || slowPenaltyMS != 800 {
		t.Errorf("calibration = WAN %v, service %v/%v, stall %v × %v ms",
			wanRTTMS, serviceMedianMS, serviceSigma, slowProb, slowPenaltyMS)
	}
}

func TestLatencyDistribution(t *testing.T) {
	s := New(stats.NewRand(2))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = s.FetchLatencyMS()
	}
	med := stats.Median(xs)
	// Calibration: median D_BE should land near the paper's ~75-80 ms
	// miss penalty (WAN 45 + service ~28).
	if med < 55 || med > 100 {
		t.Errorf("median D_BE = %.1f ms, want ~73", med)
	}
	if stats.Min(xs) < wanRTTMS {
		t.Errorf("latency below WAN floor: %v", stats.Min(xs))
	}
	// Heavy-ish tail from the lognormal + stalls.
	if stats.Quantile(xs, 0.99) < med*1.8 {
		t.Errorf("tail too light: p99=%.1f med=%.1f", stats.Quantile(xs, 0.99), med)
	}
}

// TestStallsRaiseTail: a share slowProb of fetches stalls, and only a
// stall reaches WAN RTT plus the penalty (the lognormal service time
// passes 800 ms less than once in 10⁹ draws), so the share of samples
// at or above that line is binomial around slowProb.
func TestStallsRaiseTail(t *testing.T) {
	const n = 1000000
	s := New(stats.NewRand(3))
	stalls := 0
	for i := 0; i < n; i++ {
		if s.FetchLatencyMS() >= wanRTTMS+slowPenaltyMS {
			stalls++
		}
	}
	mean := n * slowProb
	sd := math.Sqrt(n * slowProb * (1 - slowProb))
	if math.Abs(float64(stalls)-mean) > 4*sd {
		t.Errorf("%d of %d fetches stalled, want %.0f ± %.0f", stalls, n, mean, 4*sd)
	}
}
