// Package catalog models the video-on-demand library: titles with a
// heavy-tailed duration distribution (paper Fig. 3a), Zipf-like popularity
// (Fig. 3b; top 10% of titles ≈ 66% of plays), six-second chunks, and an
// adaptive-bitrate ladder. Chunk identity (video, index, bitrate) is the
// cache key for the CDN substrate.
package catalog

import (
	"fmt"
	"math"

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
	// DurationMedian and DurationSigma parameterize the lognormal duration
	// distribution. Defaults: median 120 s, sigma 1.1, clamped to
	// [18 s, 2 h] to match Fig. 3a's support.
	DurationMedian float64
	DurationSigma  float64
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
	if c.DurationMedian == 0 {
		c.DurationMedian = 120
	}
	if c.DurationSigma == 0 {
		c.DurationSigma = 1.1
	}
	if len(c.Bitrates) == 0 {
		c.Bitrates = []int{235, 375, 560, 750, 1050, 1750, 2350, 3000}
	}
	return c
}

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
}

// New generates a catalog from cfg using r for the duration samples.
func New(cfg Config, r *stats.Rand) *Catalog {
	cfg = cfg.withDefaults()
	c := &Catalog{
		Bitrates:      cfg.Bitrates,
		ChunkDuration: cfg.ChunkDuration,
		pop:           stats.NewZipf(cfg.NumVideos, cfg.ZipfExponent),
	}
	mu := math.Log(cfg.DurationMedian)
	c.Videos = make([]Video, cfg.NumVideos)
	for i := range c.Videos {
		d := r.LogNormal(mu, cfg.DurationSigma)
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

// Sample draws a video according to the Zipf popularity model.
func (c *Catalog) Sample(r *stats.Rand) *Video {
	return &c.Videos[c.pop.Sample(r)]
}

// Popularity returns the play probability of the video at rank i.
func (c *Catalog) Popularity(rank int) float64 { return c.pop.Prob(rank) }

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
