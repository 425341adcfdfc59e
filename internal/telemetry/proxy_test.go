package telemetry

import (
	"bytes"
	"math"
	"testing"

	"vidperf/internal/core"
)

func proxySession(id uint64, cohort int, mismatch bool) core.SessionRecord {
	rec := core.SessionRecord{
		SessionID: id, SRTTCV: 0.2, StartupMS: 600,
		HTTPClientIP: "10.0.0.1", BeaconIP: "10.0.0.1",
	}
	if cohort > 0 {
		rec.Proxied = true
		rec.ProxyCohort = cohort
		rec.HTTPClientIP = "egress-0001"
		rec.BeaconIP = "egress-0001"
		rec.SRTTCV = 0.8
		rec.StartupMS = 2400
		if mismatch {
			rec.BeaconIP = "10.9.0.1"
		}
	}
	return rec
}

// TestProxyAccumulator: proxy mode splits the CV(SRTT)/startup sketches
// by ground-truth placement, counts proxied and IP-mismatch sessions,
// and keys a per-egress counter; NaN startups are skipped.
func TestProxyAccumulator(t *testing.T) {
	a := NewAccumulatorWith(Config{SketchK: 32, Proxy: true})
	a.ConsumeSession(proxySession(1, 0, false), nil)
	a.ConsumeSession(proxySession(2, 1, true), nil)
	a.ConsumeSession(proxySession(3, 1, false), nil)
	a.ConsumeSession(proxySession(4, 2, true), nil)
	nan := proxySession(5, 2, false)
	nan.StartupMS = math.NaN()
	a.ConsumeSession(nan, nil)

	sn := a.snapshot()
	if got := sn.Counter(CounterSessionsProxied); got != 4 {
		t.Errorf("%s = %d, want 4", CounterSessionsProxied, got)
	}
	if got := sn.Counter(CounterSessionsIPMismatch); got != 2 {
		t.Errorf("%s = %d, want 2", CounterSessionsIPMismatch, got)
	}
	if got := sn.Counter(ProxyEgressSessionsKey(1)); got != 2 {
		t.Errorf("egress 1 sessions = %d, want 2", got)
	}
	if got := sn.Counter(ProxyEgressSessionsKey(2)); got != 2 {
		t.Errorf("egress 2 sessions = %d, want 2", got)
	}
	if n := sn.Sketch(MetricSRTTCVProxied).N(); n != 4 {
		t.Errorf("proxied CV sketch holds %d sessions, want 4", n)
	}
	if n := sn.Sketch(MetricSRTTCVClear).N(); n != 1 {
		t.Errorf("direct CV sketch holds %d sessions, want 1", n)
	}
	if n := sn.Sketch(MetricStartupProxied).N(); n != 3 {
		t.Errorf("proxied startup sketch holds %d (NaN not skipped?), want 3", n)
	}
}

// TestProxyAccumulatorEagerAndMergeable: proxy sketches exist even on an
// empty accumulator (the eager-shape invariant), a non-proxy
// accumulator carries none of them, and a sharded consume merges to the
// sequential accumulator's exact snapshot bytes, sketch sums aside. A
// float sum depends on how its adds are grouped, so each merged sum is
// instead the two shards' sums added, bit for bit.
func TestProxyAccumulatorEagerAndMergeable(t *testing.T) {
	empty := NewAccumulatorWith(Config{SketchK: 32, Proxy: true}).snapshot()
	for _, name := range proxyMetricNames {
		if _, ok := empty.Sketches[name]; !ok {
			t.Errorf("empty proxy snapshot lacks sketch %s", name)
		}
	}
	plain := NewAccumulatorWith(Config{SketchK: 32}).snapshot()
	for _, name := range proxyMetricNames {
		if _, ok := plain.Sketches[name]; ok {
			t.Errorf("non-proxy snapshot carries sketch %s", name)
		}
	}

	seq := NewAccumulatorWith(Config{SketchK: 32, Proxy: true})
	s1 := NewAccumulatorWith(Config{SketchK: 32, Proxy: true})
	s2 := NewAccumulatorWith(Config{SketchK: 32, Proxy: true})
	for id := uint64(1); id <= 12; id++ {
		rec := proxySession(id, int(id%3), id%4 == 0)
		seq.ConsumeSession(rec, nil)
		if id <= 6 {
			s1.ConsumeSession(rec, nil)
		} else {
			s2.ConsumeSession(rec, nil)
		}
	}
	want, shard2 := map[string]float64{}, s2.snapshot().Sketches
	for name, sk := range s1.snapshot().Sketches {
		want[name] = sk.Sum() + shard2[name].Sum()
	}
	s1.Merge(s2)
	merged, sequential := s1.snapshot(), seq.snapshot()
	for name, sk := range merged.Sketches {
		if math.Float64bits(sk.Sum()) != math.Float64bits(want[name]) {
			t.Errorf("merged %s sum %v, want the shards' sums added, %v", name, sk.Sum(), want[name])
		}
		sk.sum, sequential.Sketches[name].sum = 0, 0
	}
	if !bytes.Equal(snapshotBytesOf(t, merged), snapshotBytesOf(t, sequential)) {
		t.Fatal("sharded proxy accumulation is not byte-identical to sequential")
	}
}
