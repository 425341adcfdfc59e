package clientstack

import (
	"testing"

	"vidperf/internal/stats"
)

func TestStrings(t *testing.T) {
	if Windows.String() != "Windows" || MacOS.String() != "Mac" || Linux.String() != "Linux" {
		t.Error("OS strings wrong")
	}
	if Chrome.String() != "Chrome" || Yandex.String() != "Yandex" {
		t.Error("Browser strings wrong")
	}
	if (Platform{OS: Windows, Browser: Safari}).UserAgent() != "Safari/Windows" {
		t.Error("UserAgent wrong")
	}
}

// TestUserAgentTable: the table returns the concatenated label for every
// (browser, OS) pair, values outside the enums included, and a known
// pair's label allocates nothing.
func TestUserAgentTable(t *testing.T) {
	for b := Browser(-1); b <= OtherBrowser+1; b++ {
		for o := OS(-1); o <= Linux+1; o++ {
			if got, want := (Platform{OS: o, Browser: b}).UserAgent(), b.String()+"/"+o.String(); got != want {
				t.Errorf("UserAgent(%d, %d) = %q, want %q", b, o, got, want)
			}
		}
	}
	var label string
	allocs := testing.AllocsPerRun(100, func() {
		for b := Chrome; b <= OtherBrowser; b++ {
			for o := Windows; o <= Linux; o++ {
				label = (Platform{OS: o, Browser: b}).UserAgent()
			}
		}
	})
	if allocs != 0 || label != "Other/Linux" {
		t.Errorf("UserAgent over every known pair: %.0f allocations, last label %q; want 0, \"Other/Linux\"", allocs, label)
	}
}

func TestPopularBrowsers(t *testing.T) {
	for _, b := range []Browser{Chrome, Firefox, InternetExplorer, Safari, Edge} {
		if !b.Popular() {
			t.Errorf("%v should be popular", b)
		}
	}
	for _, b := range []Browser{Opera, Vivaldi, Yandex, SeaMonkey, OtherBrowser} {
		if b.Popular() {
			t.Errorf("%v should be unpopular", b)
		}
	}
}

func TestStackProfileOrdering(t *testing.T) {
	// Mean persistent D_DS (session-weighted) must reproduce Table 5's
	// ordering: Safari off-Mac >> Firefox/other >> Chrome.
	meanFor := func(p Platform) float64 {
		r := stats.NewRand(7)
		var s stats.Summary
		for i := 0; i < 4000; i++ {
			s.Add(NewStackProfile(p, r).PersistentDDSMS)
		}
		return s.Mean()
	}
	safariWin := meanFor(Platform{OS: Windows, Browser: Safari})
	firefoxWin := meanFor(Platform{OS: Windows, Browser: Firefox})
	chromeWin := meanFor(Platform{OS: Windows, Browser: Chrome})
	safariMac := meanFor(Platform{OS: MacOS, Browser: Safari})
	if !(safariWin > firefoxWin && firefoxWin > chromeWin) {
		t.Errorf("ordering violated: safariWin=%.0f firefoxWin=%.0f chromeWin=%.0f",
			safariWin, firefoxWin, chromeWin)
	}
	if safariMac >= safariWin/3 {
		t.Errorf("Safari on Mac (%.0f) should be far cleaner than on Windows (%.0f)",
			safariMac, safariWin)
	}
}

func TestFirstChunkExtra(t *testing.T) {
	r := stats.NewRand(8)
	sp := NewStackProfile(Platform{OS: Windows, Browser: Chrome}, r)
	if sp.FirstChunkExtraMS < 50 || sp.FirstChunkExtraMS > 3000 {
		t.Errorf("first-chunk extra %.0f ms implausible (median target ~300)", sp.FirstChunkExtraMS)
	}
	var first, later stats.Summary
	for i := 0; i < 3000; i++ {
		first.Add(sp.Sample(0, r).DDSms)
		later.Add(sp.Sample(3, r).DDSms)
	}
	if first.Mean() < later.Mean()+100 {
		t.Errorf("first chunk D_DS %.0f not well above later %.0f", first.Mean(), later.Mean())
	}
}

func TestTransientRate(t *testing.T) {
	r := stats.NewRand(9)
	sp := NewStackProfile(Platform{OS: Windows, Browser: Chrome}, r)
	n, transients := 200000, 0
	for i := 0; i < n; i++ {
		c := sp.Sample(2, r)
		if c.Transient {
			transients++
			if c.TransientDelayMS < 300 {
				t.Fatalf("transient delay %.0f below floor", c.TransientDelayMS)
			}
			if c.DDSms < c.TransientDelayMS {
				t.Fatal("transient delay not included in DDS")
			}
		}
	}
	got := float64(transients) / float64(n)
	// Paper: 0.32% of chunks.
	if got < 0.002 || got > 0.005 {
		t.Errorf("transient rate %.4f, want ~0.0032", got)
	}
}

func TestRenderHiddenPlayerDropsByDesign(t *testing.T) {
	r := stats.NewRand(10)
	p := Platform{OS: Windows, Browser: Chrome, CPUCores: 4}
	out := RenderChunk(p, false, 2.0, 1000, 30, 6, 30, r)
	if out.DroppedFrac() < 0.8 {
		t.Errorf("hidden player dropped only %.2f", out.DroppedFrac())
	}
	if out.Visible {
		t.Error("visibility flag wrong")
	}
}

func TestRenderGPUCleans(t *testing.T) {
	r := stats.NewRand(11)
	gpu := Platform{OS: Windows, Browser: Chrome, CPUCores: 4, GPU: true, CPULoad: 0.9}
	var s stats.Summary
	for i := 0; i < 2000; i++ {
		s.Add(RenderChunk(gpu, true, 0.8, 3000, 30, 6, 0, r).DroppedFrac())
	}
	if s.Mean() > 0.02 {
		t.Errorf("GPU rendering dropped %.3f on average, want ~0", s.Mean())
	}
}

func TestRenderRateThreshold(t *testing.T) {
	// Fig. 19: drops fall as download rate rises, flattening by 1.5 sec/sec.
	r := stats.NewRand(12)
	p := Platform{OS: Windows, Browser: Firefox, CPUCores: 4}
	meanAt := func(rate float64) float64 {
		var s stats.Summary
		for i := 0; i < 3000; i++ {
			s.Add(RenderChunk(p, true, rate, 1000, 30, 6, 2, r).DroppedFrac())
		}
		return s.Mean()
	}
	slow, mid, good, fast := meanAt(0.5), meanAt(1.2), meanAt(1.6), meanAt(3.0)
	if !(slow > mid && mid > good) {
		t.Errorf("drops not decreasing with rate: %.3f %.3f %.3f", slow, mid, good)
	}
	if slow < 0.15 {
		t.Errorf("starved chunks dropped only %.3f, want >15%%", slow)
	}
	// Beyond the threshold the curve flattens (Fig. 19's plateau).
	if good-fast > 0.02 {
		t.Errorf("rate beyond 1.5 still improves drops materially: %.3f -> %.3f", good, fast)
	}
}

func TestRenderBufferShieldsStarvation(t *testing.T) {
	r := stats.NewRand(13)
	p := Platform{OS: Windows, Browser: Chrome, CPUCores: 4}
	var bare, shielded stats.Summary
	for i := 0; i < 3000; i++ {
		bare.Add(RenderChunk(p, true, 0.8, 1000, 30, 6, 0, r).DroppedFrac())
		shielded.Add(RenderChunk(p, true, 0.8, 1000, 30, 6, 25, r).DroppedFrac())
	}
	if shielded.Mean() >= bare.Mean() {
		t.Errorf("buffer did not shield starvation: %.3f vs %.3f", shielded.Mean(), bare.Mean())
	}
}

func TestRenderCPULoadCurve(t *testing.T) {
	// Fig. 20: with software rendering, drops climb as background load
	// consumes the cores.
	r := stats.NewRand(14)
	meanAt := func(load float64) float64 {
		p := Platform{OS: MacOS, Browser: Firefox, CPUCores: 8, CPULoad: load}
		var s stats.Summary
		for i := 0; i < 3000; i++ {
			s.Add(RenderChunk(p, true, 3.0, 1500, 30, 6, 20, r).DroppedFrac())
		}
		return s.Mean()
	}
	low, mid, high := meanAt(0.1), meanAt(0.6), meanAt(0.95)
	if !(high > mid && mid >= low) {
		t.Errorf("drops not increasing with CPU load: %.3f %.3f %.3f", low, mid, high)
	}
	if high < low+0.01 {
		t.Errorf("CPU effect too weak: %.3f -> %.3f", low, high)
	}
}

func TestRenderBrowserOrdering(t *testing.T) {
	// Figs. 21–22: unpopular browsers drop more than Chrome at equal
	// conditions.
	r := stats.NewRand(15)
	meanFor := func(b Browser, os OS) float64 {
		p := Platform{OS: os, Browser: b, CPUCores: 4}
		var s stats.Summary
		for i := 0; i < 3000; i++ {
			s.Add(RenderChunk(p, true, 2.0, 1000, 30, 6, 20, r).DroppedFrac())
		}
		return s.Mean()
	}
	chrome := meanFor(Chrome, Windows)
	yandex := meanFor(Yandex, Windows)
	safariWin := meanFor(Safari, Windows)
	safariMac := meanFor(Safari, MacOS)
	if yandex < 2*chrome {
		t.Errorf("Yandex (%.3f) should drop far more than Chrome (%.3f)", yandex, chrome)
	}
	if safariWin < 2*safariMac {
		t.Errorf("Safari/Windows (%.3f) should drop far more than Safari/Mac (%.3f)", safariWin, safariMac)
	}
}

func TestRenderFrameAccounting(t *testing.T) {
	r := stats.NewRand(16)
	p := Platform{OS: Windows, Browser: Chrome, CPUCores: 4}
	out := RenderChunk(p, true, 2.0, 1000, 30, 6, 10, r)
	if out.FramesTotal != 180 {
		t.Errorf("frames = %d, want 180", out.FramesTotal)
	}
	if out.FramesDropped < 0 || out.FramesDropped > out.FramesTotal {
		t.Errorf("dropped %d of %d", out.FramesDropped, out.FramesTotal)
	}
	if out.AvgFPS < 0 || out.AvgFPS > 30 {
		t.Errorf("avg fps = %v", out.AvgFPS)
	}
	zero := RenderChunk(p, true, 2.0, 1000, 30, 0, 10, r)
	if zero.FramesTotal != 0 || zero.DroppedFrac() != 0 {
		t.Error("zero-duration chunk mishandled")
	}
}
