// Package catalog models the video-on-demand library: titles with a
// heavy-tailed duration distribution (paper Fig. 3a), Zipf-like popularity
// (Fig. 3b; top 10% of titles ≈ 66% of plays), six-second chunks, and an
// adaptive-bitrate ladder. Chunk identity (video, index, bitrate) is the
// cache key for the CDN substrate.
package catalog

import (
	"fmt"
	"math"
	"sync"

	"vidperf/internal/stats"
)

// Video is a single title.
type Video struct {
	ID          int
	Rank        int     // popularity rank; 0 is most popular
	DurationSec float64 // total length
	NumChunks   int     // ceil(duration / chunk duration)
}

// Config parameterizes catalog generation. Zero fields take defaults.
type Config struct {
	NumVideos     int     // default 6000
	ZipfExponent  float64 // default 0.9 (calibrated to top-10% ≈ 66% of plays)
	ChunkDuration float64 // seconds per chunk; default 6 (paper §3)
	// Bitrates is the encoding ladder in kbps. Default is an 8-rung ladder
	// from 235 kbps to 3000 kbps.
	Bitrates []int
}

func (c Config) withDefaults() Config {
	if c.NumVideos == 0 {
		c.NumVideos = 6000
	}
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 0.9
	}
	if c.ChunkDuration == 0 {
		c.ChunkDuration = 6
	}
	if len(c.Bitrates) == 0 {
		c.Bitrates = []int{235, 375, 560, 750, 1050, 1750, 2350, 3000}
	}
	return c
}

// Title durations are lognormal with this median (seconds) and shape,
// clamped to [3 chunks, MaxDurationSec]: the heavy-tailed support of the
// paper's Fig. 3a.
const (
	durationMedianSec = 120
	durationSigma     = 1.1
)

// MaxDurationSec is the longest title a catalog generates.
const MaxDurationSec = 7200

// MaxBitrateKbps bounds a ladder rung: ChunkKey keeps kbps/10 in 12 bits.
const MaxBitrateKbps = 40960

// ValidateBitrates checks an encoding ladder: rungs must be positive,
// strictly ascending and below MaxBitrateKbps, and no two may share a
// ChunkKey rung code (kbps/10), since a shared code would make two rungs
// one CDN cache object. An empty ladder is valid (it selects the
// default).
func ValidateBitrates(ladder []int) error {
	for i, kbps := range ladder {
		switch {
		case kbps <= 0 || kbps >= MaxBitrateKbps:
			return fmt.Errorf("catalog: bitrate %d kbps out of range (0, %d)", kbps, MaxBitrateKbps)
		case i > 0 && kbps <= ladder[i-1]:
			return fmt.Errorf("catalog: bitrates must be strictly ascending (%d after %d)", kbps, ladder[i-1])
		case i > 0 && kbps/10 == ladder[i-1]/10:
			return fmt.Errorf("catalog: bitrates %d and %d kbps share cache key code %d (kbps/10)", ladder[i-1], kbps, kbps/10)
		}
	}
	return nil
}

// Catalog is a generated video library plus its popularity model.
type Catalog struct {
	Videos        []Video
	Bitrates      []int   // kbps, ascending
	ChunkDuration float64 // seconds

	pop *stats.Zipf

	derivedMu sync.Mutex
	derived   map[any]func() any // see Derive
}

// New generates a catalog from cfg using r for the duration samples.
func New(cfg Config, r *stats.Rand) *Catalog {
	cfg = cfg.withDefaults()
	c := &Catalog{
		Bitrates:      cfg.Bitrates,
		ChunkDuration: cfg.ChunkDuration,
		pop:           stats.NewZipf(cfg.NumVideos, cfg.ZipfExponent),
	}
	mu := math.Log(durationMedianSec)
	c.Videos = make([]Video, cfg.NumVideos)
	for i := range c.Videos {
		d := r.LogNormal(mu, durationSigma)
		if d < 3*cfg.ChunkDuration {
			d = 3 * cfg.ChunkDuration
		}
		if d > MaxDurationSec {
			d = MaxDurationSec
		}
		c.Videos[i] = Video{
			ID:          i,
			Rank:        i, // rank order == index; popularity assigned by Zipf
			DurationSec: d,
			NumChunks:   int(math.Ceil(d / cfg.ChunkDuration)),
		}
	}
	return c
}

// Derive returns build(c, key), calling build only on the first call
// for key and handing the same value to every later caller, concurrent
// ones included (they wait for the first build). The value lives
// exactly as long as the catalog, so a structure derived from one run's
// catalog (the session runner's warm-up ownership index) is built once
// per run, shared by all of its shards, and freed with it. build must be
// a pure function of the catalog and key, and callers must treat the
// value as read-only. As with context.Value, K should be an unexported
// type of the calling package. A call that finds its value allocates
// nothing.
func Derive[K comparable, V any](c *Catalog, key K, build func(*Catalog, K) V) V {
	c.derivedMu.Lock()
	get, ok := c.derived[key]
	if !ok {
		if c.derived == nil {
			c.derived = make(map[any]func() any, 1)
		}
		get = sync.OnceValue(func() any { return build(c, key) })
		c.derived[key] = get
	}
	c.derivedMu.Unlock()
	return get().(V)
}

// Sample draws a video according to the Zipf popularity model.
func (c *Catalog) Sample(r *stats.Rand) *Video {
	return &c.Videos[c.pop.Sample(r)]
}

// TopShare returns the probability mass of the most popular frac of titles.
func (c *Catalog) TopShare(frac float64) float64 { return c.pop.TopShare(frac) }

// ChunkKey uniquely identifies one chunk at one bitrate across the whole
// catalog; it is the CDN cache key.
func ChunkKey(videoID, chunkIndex, bitrateKbps int) uint64 {
	return uint64(videoID)<<32 | uint64(uint32(chunkIndex))<<12 | uint64(bitrateKbps/10)&0xfff
}

// ChunkSizeBytes returns the size of a chunk of the given duration encoded
// at bitrateKbps.
func ChunkSizeBytes(bitrateKbps int, durationSec float64) int64 {
	return int64(float64(bitrateKbps) * 1000 / 8 * durationSec)
}

// ChunkDurationSec returns the duration of chunk idx of v given the ladder
// chunk duration: all chunks are full length except possibly the last.
func (c *Catalog) ChunkDurationSec(v *Video, idx int) float64 {
	if idx < 0 || idx >= v.NumChunks {
		return 0
	}
	if idx == v.NumChunks-1 {
		rem := v.DurationSec - float64(v.NumChunks-1)*c.ChunkDuration
		if rem > 0 {
			return rem
		}
	}
	return c.ChunkDuration
}

// String implements fmt.Stringer for debugging.
func (v Video) String() string {
	return fmt.Sprintf("video{id=%d rank=%d dur=%.0fs chunks=%d}", v.ID, v.Rank, v.DurationSec, v.NumChunks)
}
