package player

import (
	"math"
	"testing"
	"testing/quick"

	"vidperf/internal/stats"
)

func TestStartupAtThreshold(t *testing.T) {
	p := New(6)
	p.OnChunkDownloaded(800, 6)
	if !p.Started() {
		t.Fatal("playback did not start at threshold")
	}
	if p.StartupMS() != 800 {
		t.Errorf("startup = %v, want 800", p.StartupMS())
	}
}

func TestStartupWaitsForThreshold(t *testing.T) {
	p := New(12)
	p.OnChunkDownloaded(500, 6)
	if p.Started() {
		t.Fatal("started below threshold")
	}
	p.OnChunkDownloaded(1200, 6)
	if !p.Started() || p.StartupMS() != 1200 {
		t.Errorf("startup = %v, want 1200", p.StartupMS())
	}
}

func TestSmoothPlaybackNoRebuffer(t *testing.T) {
	p := New(6)
	now := 0.0
	for i := 0; i < 10; i++ {
		now += 2000 // each 6 s chunk arrives in 2 s: buffer grows
		p.OnChunkDownloaded(now, 6)
	}
	p.Finish()
	if p.RebufCount() != 0 {
		t.Errorf("rebuffers = %d, want 0", p.RebufCount())
	}
	if math.Abs(p.PlayedSec()-60) > 1e-6 {
		t.Errorf("played %v sec, want 60", p.PlayedSec())
	}
}

func TestRebufferWhenStarved(t *testing.T) {
	p := New(6)
	p.OnChunkDownloaded(1000, 6) // starts, buffer 6 s
	// Next chunk takes 10 s: buffer (6 s) drains at t=7000, stall until
	// the chunk lands and refills to threshold.
	p.OnChunkDownloaded(11000, 6)
	if p.RebufCount() != 1 {
		t.Fatalf("rebuffers = %d, want 1", p.RebufCount())
	}
	if math.Abs(p.RebufDurMS()-4000) > 1 {
		t.Errorf("rebuffer duration = %v, want 4000", p.RebufDurMS())
	}
	if p.stalled {
		t.Error("should have resumed at threshold")
	}
}

func TestRebufferRate(t *testing.T) {
	p := New(6)
	p.OnChunkDownloaded(0, 6)
	p.OnChunkDownloaded(12000, 6) // 6 s stall ends at 12 s
	p.Finish()
	// Played 12 s total, stalled 6 s: rate = 6/(12+6) = 1/3.
	if math.Abs(p.RebufferRate()-1.0/3) > 0.01 {
		t.Errorf("rebuffer rate = %v, want ~0.333", p.RebufferRate())
	}
}

func TestFinishDrainsBuffer(t *testing.T) {
	p := New(6)
	p.OnChunkDownloaded(1000, 6)
	p.OnChunkDownloaded(1500, 6)
	p.Finish()
	if p.BufferSec() != 0 {
		t.Errorf("buffer = %v after finish", p.BufferSec())
	}
	if math.Abs(p.PlayedSec()-12) > 1e-6 {
		t.Errorf("played = %v, want 12", p.PlayedSec())
	}
}

func TestAdvanceBackwardsIgnored(t *testing.T) {
	p := New(6)
	p.OnChunkDownloaded(1000, 6)
	p.AdvanceTo(500) // must be a no-op
	if p.BufferSec() != 6 {
		t.Errorf("buffer = %v", p.BufferSec())
	}
}

func TestDefaultThreshold(t *testing.T) {
	p := New(0)
	if p.StartThresholdSec != 6 {
		t.Errorf("default threshold = %v", p.StartThresholdSec)
	}
}

func TestNoStartNoRebuffer(t *testing.T) {
	p := New(6)
	p.AdvanceTo(100000)
	if p.RebufCount() != 0 || p.RebufDurMS() != 0 {
		t.Error("rebuffering counted before playback started")
	}
}

// Property: buffer never goes negative, played seconds never exceed
// delivered seconds, and rebuffer duration is non-negative, for arbitrary
// arrival schedules.
func TestPlayerInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := New(6)
		now, delivered := 0.0, 0.0
		for i := 0; i < 50; i++ {
			now += r.Uniform(100, 15000)
			dur := r.Uniform(2, 6)
			delivered += dur
			p.OnChunkDownloaded(now, dur)
			if p.BufferSec() < 0 {
				return false
			}
			if p.PlayedSec() > delivered+1e-6 {
				return false
			}
			if p.RebufDurMS() < 0 {
				return false
			}
		}
		p.Finish()
		return math.Abs(p.PlayedSec()-delivered) < 1e-6 || !p.Started()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: rebuffer rate is always within [0, 1].
func TestRebufferRateBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := New(6)
		now := 0.0
		for i := 0; i < 30; i++ {
			now += r.Uniform(500, 20000)
			p.OnChunkDownloaded(now, 6)
		}
		p.Finish()
		rate := p.RebufferRate()
		return rate >= 0 && rate <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
