package workload

import (
	"testing"

	"vidperf/internal/proxypop"
)

// TestProxyDisabledPathAddsNoAllocations guards the cost of the proxy
// model when it is switched off: a scenario carrying a zero-valued
// proxy config must build no cohort table and plan sessions with
// exactly the allocation count of a scenario that never mentions
// proxies. This is what keeps BenchmarkRunParallel's ns/op and B/op —
// and the benchdiff gate against BENCH_BASELINE.json — unchanged by
// the proxy subsystem: the benchmark scenarios exercise precisely this
// disabled path.
func TestProxyDisabledPathAddsNoAllocations(t *testing.T) {
	base := Scenario{Seed: 7, NumSessions: 512, NumPrefixes: 64}
	withZero := base
	withZero.Proxy = proxypop.Config{}

	plain := Build(base)
	zero := Build(withZero)
	if zero.proxyCohorts != nil {
		t.Fatalf("disabled proxy config built a %d-entry cohort table", len(zero.proxyCohorts))
	}

	// Cycle a fixed window of ids so both measurements average over the
	// same per-session code paths (hidden-session draw, watch clamp, ...).
	plan := func(p *Population) func() {
		id := uint64(0)
		return func() {
			p.PlanSession(id%uint64(p.Scenario.NumSessions) + 1)
			id++
		}
	}
	const rounds = 2000
	plainAllocs := testing.AllocsPerRun(rounds, plan(plain))
	zeroAllocs := testing.AllocsPerRun(rounds, plan(zero))
	if zeroAllocs != plainAllocs {
		t.Fatalf("disabled proxy path changed PlanSession allocations: %.2f vs %.2f per plan",
			zeroAllocs, plainAllocs)
	}

	// And the enabled path must confine its extra cost to proxied
	// sessions: membership is one draw and the cohort table is shared,
	// so the per-plan overhead stays bounded (a handful of allocs for
	// the rewritten identity strings at most).
	enabled := base
	enabled.Proxy = proxypop.Config{Share: 0.23, Cohorts: 3, EgressKbps: 25000}
	enabledAllocs := testing.AllocsPerRun(rounds, plan(Build(enabled)))
	if enabledAllocs > plainAllocs+2 {
		t.Fatalf("enabled proxy path allocates %.2f per plan vs %.2f plain — more than the identity rewrite should cost",
			enabledAllocs, plainAllocs)
	}
}

// TestPlanSessionAllocatesOnlyTheIP: a plan's one heap object is its
// beacon IP string. The plan head's generator stays on the stack, and a
// proxied plan's addresses are its cohort's shared strings.
func TestPlanSessionAllocatesOnlyTheIP(t *testing.T) {
	base := Scenario{Seed: 7, NumSessions: 512, NumPrefixes: 64}
	proxied := base
	proxied.Proxy = proxypop.Config{Share: 0.23, Cohorts: 3, EgressKbps: 25000}
	for name, sc := range map[string]Scenario{"plain": base, "proxied": proxied} {
		p := Build(sc)
		id := uint64(0)
		allocs := testing.AllocsPerRun(2000, func() {
			p.PlanSession(id%uint64(sc.NumSessions) + 1)
			id++
		})
		if allocs > 1 {
			t.Errorf("%s: PlanSession allocates %.2f objects per plan, want at most 1", name, allocs)
		}
	}
}

// TestBeaconIP pins the beacon address format PlanSession used to build
// with fmt.Sprintf("10.%d.%d.%d", prefix/250, prefix%250, host).
func TestBeaconIP(t *testing.T) {
	for _, tc := range []struct {
		prefix, host int
		want         string
	}{
		{0, 1, "10.0.0.1"},
		{249, 250, "10.0.249.250"},
		{250, 17, "10.1.0.17"},
		{123456, 99, "10.493.206.99"},
	} {
		if got := beaconIP(tc.prefix, tc.host); got != tc.want {
			t.Errorf("beaconIP(%d, %d) = %q, want %q", tc.prefix, tc.host, got, tc.want)
		}
	}
}
