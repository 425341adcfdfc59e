// Package player implements the client playback model: the playback
// buffer chunks drain into, startup and re-buffering accounting, and the
// per-session QoE summary (startup delay, re-buffering rate, average
// bitrate, rendering quality) that prior work ties to engagement and the
// paper uses as its impact metrics.
package player

// Player tracks playback-buffer occupancy against wall-clock time.
// Time is in milliseconds, buffer contents in seconds of video.
type Player struct {
	// StartThresholdSec is the buffered video needed to begin playback
	// (also the resume threshold after a stall).
	StartThresholdSec float64

	bufferSec  float64
	clockMS    float64
	started    bool
	startupMS  float64
	stalled    bool // started but buffer empty
	stallBegan float64

	rebufCount  int
	rebufDurMS  float64
	playedSec   float64
	sessionEnds bool
}

// New returns a player that starts playback once threshold seconds are
// buffered (a typical production value is one chunk's worth).
func New(thresholdSec float64) Player {
	if thresholdSec <= 0 {
		thresholdSec = 6
	}
	return Player{StartThresholdSec: thresholdSec}
}

// AdvanceTo moves wall time forward to nowMS, draining the buffer if
// playing and recording a stall when it runs dry.
func (p *Player) AdvanceTo(nowMS float64) {
	if nowMS <= p.clockMS {
		return
	}
	dt := nowMS - p.clockMS
	p.clockMS = nowMS
	if !p.started {
		return
	}
	if p.stalled {
		p.rebufDurMS += dt
		return
	}
	playSec := dt / 1000
	if playSec <= p.bufferSec {
		p.bufferSec -= playSec
		p.playedSec += playSec
		// Exactly empty is a stall only if more video is still expected;
		// OnChunkDownloaded/Finish resolve that, so mark tentative stall.
		if p.bufferSec <= 0 {
			p.bufferSec = 0
			p.beginStall(nowMS)
		}
		return
	}
	// Buffer ran dry partway through the interval.
	playedMS := p.bufferSec * 1000
	p.playedSec += p.bufferSec
	p.bufferSec = 0
	p.beginStall(nowMS - (dt - playedMS))
	p.rebufDurMS += dt - playedMS
}

func (p *Player) beginStall(atMS float64) {
	if p.stalled {
		return
	}
	p.stalled = true
	p.stallBegan = atMS
	p.rebufCount++
}

// OnChunkDownloaded credits durationSec of video at nowMS, starting or
// resuming playback when the threshold is met.
func (p *Player) OnChunkDownloaded(nowMS, durationSec float64) {
	p.AdvanceTo(nowMS)
	p.bufferSec += durationSec
	if !p.started && p.bufferSec >= p.StartThresholdSec {
		p.started = true
		p.startupMS = nowMS
	}
	if p.stalled && p.bufferSec >= p.StartThresholdSec {
		p.stalled = false
	}
}

// Finish drains the remaining buffer at session end. A stall in progress
// when the last chunk has already arrived is cancelled retroactively only
// in the sense that no further rebuffer time accrues; the event stays
// counted if real.
func (p *Player) Finish() {
	if p.started && p.bufferSec > 0 {
		p.playedSec += p.bufferSec
		p.clockMS += p.bufferSec * 1000
		p.bufferSec = 0
	}
	p.sessionEnds = true
}

// BufferSec returns current buffer occupancy in seconds of video.
func (p *Player) BufferSec() float64 { return p.bufferSec }

// Started reports whether playback has begun.
func (p *Player) Started() bool { return p.started }

// Stalled reports whether the player is currently re-buffering.
func (p *Player) Stalled() bool { return p.stalled }

// StartupMS returns the wall time at which playback started (the paper's
// Fig. 4/7 "startup time"), or 0 if it never did.
func (p *Player) StartupMS() float64 { return p.startupMS }

// RebufCount returns the number of re-buffering events so far.
func (p *Player) RebufCount() int { return p.rebufCount }

// RebufDurMS returns total time spent re-buffering.
func (p *Player) RebufDurMS() float64 { return p.rebufDurMS }

// PlayedSec returns seconds of video played out.
func (p *Player) PlayedSec() float64 { return p.playedSec }

// RebufferRate returns the fraction of post-startup session time spent
// re-buffering: rebufDur / (playTime + rebufDur).
func (p *Player) RebufferRate() float64 {
	denom := p.playedSec*1000 + p.rebufDurMS
	if denom <= 0 {
		return 0
	}
	return p.rebufDurMS / denom
}
