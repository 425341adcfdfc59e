// Package live models linear ("live") channels: a channel publishes
// chunk i at virtual time i·chunk_dur on a shared publish clock, so the
// whole audience wants the same chunk at the same moment (the
// synchronized hot edge VoD workloads cannot express). Sessions join a
// channel in progress at the live edge — the start chunk derives from
// the arrival time, not chunk 0 — and may only request chunks the clock
// has published: a player that drains its buffer waits on the publish
// clock, accruing live-edge lag instead of unbounded rebuffering.
//
// Everything here is pure arithmetic on virtual time. The publish clock
// is global — every channel publishes chunk i at the same instant — so
// it never rewinds, a channel switch can never land ahead of the edge,
// and no RNG draws are involved: the byte-identity invariant (any
// parallelism) extends to live scenarios unchanged.
package live

import "fmt"

// Defaults for the zero-valued knobs of an enabled Config.
const (
	// DefaultChunkDurationSec matches the VoD chunk length (§2 of the
	// paper), so live and VoD ladders stay size-comparable.
	DefaultChunkDurationSec = 6
	// DefaultJoinBehindChunks is the live-latency safety margin: sessions
	// start this many chunks behind the edge so the first requests are
	// already published and the player can buffer without waiting.
	DefaultJoinBehindChunks = 2
	// DefaultJoinZipfS is the channel-popularity skew used when
	// JoinDist is "zipf".
	DefaultJoinZipfS = 1.1
)

// Channel-popularity distributions sessions join under.
const (
	JoinUniform = "uniform"
	JoinZipf    = "zipf"
)

// Bounds enforced by Validate.
const (
	MaxChannels     = 4096
	MinChunkSec     = 1.0
	MaxChunkSec     = 60.0
	MaxSwitchPerMin = 60.0
)

// Config is the live-channel block of a workload scenario. The zero
// value (Channels == 0) disables live mode entirely; an enabled config
// uses the neutral-zero convention for the remaining knobs (0/"" selects
// the default, like every other scenario field). Its JSON keys are those
// of an experiment spec's "live" block and of a serve checkpoint.
type Config struct {
	// Channels is the number of linear channels on air. 0 disables live
	// mode (the scenario runs as plain VoD).
	Channels int `json:"channels"`
	// ChunkDurationSec is the published chunk length in seconds; chunk i
	// of every channel becomes fetchable at i·ChunkDurationSec.
	// 0 selects DefaultChunkDurationSec.
	ChunkDurationSec float64 `json:"chunk_sec,omitempty"`
	// SwitchPerMin is the expected per-session channel switches per
	// minute of playback (0 = sessions stay on their join channel).
	SwitchPerMin float64 `json:"switch_per_min,omitempty"`
	// JoinDist is the channel-popularity distribution sessions join
	// under: JoinUniform (default) or JoinZipf.
	JoinDist string `json:"join,omitempty"`
	// JoinZipfS is the zipf skew exponent when JoinDist is JoinZipf;
	// 0 selects DefaultJoinZipfS.
	JoinZipfS float64 `json:"join_zipf_s,omitempty"`
	// JoinBehindChunks is how many chunks behind the live edge a session
	// starts; 0 selects DefaultJoinBehindChunks.
	JoinBehindChunks int `json:"join_behind_chunks,omitempty"`
}

// Enabled reports whether the scenario runs in live mode.
func (c Config) Enabled() bool { return c.Channels > 0 }

// WithDefaults fills the zero-valued knobs of an enabled config. A
// disabled config is returned unchanged, so a scenario without live mode
// stays byte-for-byte the zero value.
func (c Config) WithDefaults() Config {
	if !c.Enabled() {
		return c
	}
	if c.ChunkDurationSec == 0 {
		c.ChunkDurationSec = DefaultChunkDurationSec
	}
	if c.JoinDist == "" {
		c.JoinDist = JoinUniform
	}
	if c.JoinZipfS == 0 {
		c.JoinZipfS = DefaultJoinZipfS
	}
	if c.JoinBehindChunks == 0 {
		c.JoinBehindChunks = DefaultJoinBehindChunks
	}
	return c
}

// Validate checks the config's bounds. A disabled config (Channels == 0)
// is always valid regardless of the other fields; Validate accepts both
// raw and defaulted configs (0 means "default" everywhere).
func (c Config) Validate() error {
	if c.Channels < 0 {
		return fmt.Errorf("live: channels must be >= 0, got %d", c.Channels)
	}
	if !c.Enabled() {
		return nil
	}
	if c.Channels > MaxChannels {
		return fmt.Errorf("live: channels must be <= %d, got %d", MaxChannels, c.Channels)
	}
	if c.ChunkDurationSec != 0 && (c.ChunkDurationSec < MinChunkSec || c.ChunkDurationSec > MaxChunkSec) {
		return fmt.Errorf("live: chunk duration must be in [%g, %g] seconds, got %g",
			MinChunkSec, MaxChunkSec, c.ChunkDurationSec)
	}
	if c.SwitchPerMin < 0 || c.SwitchPerMin > MaxSwitchPerMin {
		return fmt.Errorf("live: switch rate must be in [0, %g] per minute, got %g",
			MaxSwitchPerMin, c.SwitchPerMin)
	}
	switch c.JoinDist {
	case "", JoinUniform, JoinZipf:
	default:
		return fmt.Errorf("live: join distribution must be %q or %q, got %q",
			JoinUniform, JoinZipf, c.JoinDist)
	}
	if c.JoinZipfS < 0 {
		return fmt.Errorf("live: join zipf skew must be >= 0, got %g", c.JoinZipfS)
	}
	if c.JoinBehindChunks < 0 {
		return fmt.Errorf("live: join-behind chunks must be >= 0, got %d", c.JoinBehindChunks)
	}
	return nil
}

// ChunkDurMS is the publish period in virtual milliseconds.
func (c Config) ChunkDurMS() float64 { return c.ChunkDurationSec * 1000 }

// PublishMS returns the virtual time (ms since the campaign clock's
// zero) at which chunk i of every channel becomes fetchable.
func (c Config) PublishMS(chunk int) float64 {
	if chunk < 0 {
		return 0
	}
	return float64(chunk) * c.ChunkDurMS()
}

// EdgeChunk returns the live edge at virtual time atMS: the highest
// chunk index already published. It is monotonic in atMS and never
// negative (chunk 0 publishes at time 0).
func (c Config) EdgeChunk(atMS float64) int {
	dur := c.ChunkDurMS()
	if atMS <= 0 || dur <= 0 {
		return 0
	}
	return int(atMS / dur)
}

// JoinChunk returns the chunk a session arriving (or switching) at
// virtual time atMS starts from: JoinBehindChunks behind the live edge,
// clamped at 0. PublishMS(JoinChunk(t)) <= t always holds, so the first
// request after a join never waits on the publish clock.
func (c Config) JoinChunk(atMS float64) int {
	j := c.EdgeChunk(atMS) - c.JoinBehindChunks
	if j < 0 {
		return 0
	}
	return j
}

// SwitchProb converts the per-minute switch rate into a per-chunk
// switch probability (one decision after each played chunk), clamped
// to [0, 1].
func (c Config) SwitchProb() float64 {
	p := c.SwitchPerMin * c.ChunkDurationSec / 60
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
