package abr

import "testing"

var ladder = []int{235, 375, 560, 750, 1050, 1750, 2350, 3000}

func ctx(chunk int, buf, last, smooth float64) Context {
	return Context{
		Ladder: ladder, ChunkIndex: chunk, BufferSec: buf,
		LastChunkKbps: last, SmoothedKbps: smooth,
	}
}

func TestFixed(t *testing.T) {
	if got := (Fixed{Kbps: 1050}).Next(ctx(3, 10, 0, 0)); got != 1050 {
		t.Errorf("fixed = %d", got)
	}
	// Off-ladder values clamp to the highest rung below.
	if got := (Fixed{Kbps: 1100}).Next(ctx(3, 10, 0, 0)); got != 1050 {
		t.Errorf("clamped fixed = %d", got)
	}
	if got := (Fixed{Kbps: 100}).Next(ctx(3, 10, 0, 0)); got != 235 {
		t.Errorf("floor fixed = %d", got)
	}
}

func TestRateBasedStartsConservative(t *testing.T) {
	a := RateBased{}
	if got := a.Next(ctx(0, 0, 0, 0)); got != 375 {
		t.Errorf("start rung = %d, want 375", got)
	}
}

func TestRateBasedTracksSmoothedEstimate(t *testing.T) {
	a := RateBased{}
	// 0.8 * 2500 = 2000 -> rung 1750.
	if got := a.Next(ctx(5, 20, 9999, 2500)); got != 1750 {
		t.Errorf("pick = %d, want 1750", got)
	}
}

func TestInstantaneousOvershoots(t *testing.T) {
	// A stack-buffered chunk reports a huge instantaneous throughput; the
	// naive instantaneous picker overshoots while the screened one holds.
	naive := RateBased{UseInstantaneous: true}
	screened := RateBased{UseInstantaneous: true, ExcludeOutliers: true}
	c := ctx(5, 20, 80000, 1500)
	c.StackOutlier = true
	if got := naive.Next(c); got != 3000 {
		t.Errorf("naive pick = %d, want overshoot to 3000", got)
	}
	if got := screened.Next(c); got > 1050 {
		t.Errorf("screened pick = %d, want <= 1050", got)
	}
}

func TestServerSignal(t *testing.T) {
	a := ServerSignal{}
	c := ctx(5, 20, 80000, 9000) // client signals poisoned
	c.ServerKbps = 1400          // Eq. 3 view
	if got := a.Next(c); got != 1050 {
		t.Errorf("server-signal pick = %d, want 1050 (0.8*1400=1120)", got)
	}
	// Falls back to the start rung without a server sample.
	c.ServerKbps = 0
	if got := a.Next(c); got != 375 {
		t.Errorf("fallback = %d", got)
	}
}

func TestBufferBased(t *testing.T) {
	a := BufferBased{}
	if got := a.Next(ctx(5, 5, 0, 0)); got != 235 {
		t.Errorf("reservoir pick = %d", got)
	}
	if got := a.Next(ctx(5, 40, 0, 0)); got != 3000 {
		t.Errorf("cushion pick = %d", got)
	}
	mid := a.Next(ctx(5, 20, 0, 0))
	if mid <= 235 || mid >= 3000 {
		t.Errorf("mid-buffer pick = %d, want interior rung", mid)
	}
}

func TestHybridBufferGuards(t *testing.T) {
	a := Hybrid{}
	// Deep buffer: one rung above the estimate's rung.
	deep := a.Next(ctx(5, 30, 0, 2000)) // 0.85*2000=1700 -> 1050... check below
	shallow := a.Next(ctx(5, 2, 0, 2000))
	basec := a.Next(ctx(5, 15, 0, 2000))
	if !(shallow < basec && basec < deep) {
		t.Errorf("buffer guards wrong: shallow=%d base=%d deep=%d", shallow, basec, deep)
	}
}

func TestHybridDampsOutlier(t *testing.T) {
	a := Hybrid{}
	clean := ctx(5, 15, 0, 2200)
	poisoned := clean
	poisoned.StackOutlier = true
	if a.Next(poisoned) > a.Next(clean) {
		t.Error("outlier damping raised the pick")
	}
}

func TestAllStartConservative(t *testing.T) {
	algos := []Algorithm{RateBased{}, Hybrid{}, ServerSignal{}}
	for _, a := range algos {
		if got := a.Next(ctx(0, 0, 0, 0)); got != 375 {
			t.Errorf("%s start rung = %d, want 375", a.Name(), got)
		}
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Algorithm{
		"fixed":                  Fixed{},
		"rate-smoothed":          RateBased{},
		"rate-instant":           RateBased{UseInstantaneous: true},
		"rate-instant-screened":  RateBased{UseInstantaneous: true, ExcludeOutliers: true},
		"rate-smoothed-screened": RateBased{ExcludeOutliers: true},
		"server-signal":          ServerSignal{},
		"buffer-based":           BufferBased{},
		"hybrid":                 Hybrid{},
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Errorf("Name() = %q, want %q", a.Name(), want)
		}
	}
}

func TestEstimator(t *testing.T) {
	e := NewEstimator(0.5)
	if e.Kbps() != 0 {
		t.Error("estimator should start at 0")
	}
	e.Observe(1000)
	e.Observe(2000)
	if e.Kbps() != 1500 {
		t.Errorf("ewma = %v, want 1500", e.Kbps())
	}
	def, explicit := NewEstimator(0), NewEstimator(0.3)
	for _, kbps := range []float64{1000, 2000, 500} {
		def.Observe(kbps)
		explicit.Observe(kbps)
	}
	if def.Kbps() != explicit.Kbps() {
		t.Errorf("alpha 0 estimate %v, want the default 0.3's %v", def.Kbps(), explicit.Kbps())
	}
}

func TestPicksAlwaysOnLadder(t *testing.T) {
	algos := []Algorithm{
		Fixed{Kbps: 999}, RateBased{}, RateBased{UseInstantaneous: true},
		BufferBased{}, Hybrid{}, ServerSignal{},
	}
	onLadder := func(v int) bool {
		for _, b := range ladder {
			if b == v {
				return true
			}
		}
		return false
	}
	for _, a := range algos {
		for chunk := 0; chunk < 4; chunk++ {
			for _, buf := range []float64{0, 5, 15, 50} {
				for _, est := range []float64{0, 100, 800, 5000, 1e7} {
					c := ctx(chunk, buf, est, est)
					c.ServerKbps = est
					if got := a.Next(c); !onLadder(got) {
						t.Fatalf("%s picked off-ladder %d", a.Name(), got)
					}
				}
			}
		}
	}
}
