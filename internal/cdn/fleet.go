package cdn

import (
	"vidperf/internal/backend"
	"vidperf/internal/stats"
)

// FleetConfig describes the CDN deployment: PoPs, servers per PoP, the
// per-server configuration, and the client-mapping policy.
type FleetConfig struct {
	NumPoPs       int // default 6; the first NumPoPs of geo.DefaultPoPs, at most 6
	ServersPerPoP int // default 14 (≈85 servers total, paper §3)

	Server Config

	// PartitionTopRanks spreads videos with rank < PartitionTopRanks over
	// all servers of a PoP (per-session hashing) instead of pinning them
	// to one cache-focused server — the §4.1 load-balancing take-away.
	// 0 disables partitioning.
	PartitionTopRanks int
}

// WithDefaults returns the effective configuration with zero fields
// replaced by their defaults. Partitioners use it to learn the effective
// NumPoPs and ServersPerPoP before any server is built.
func (c FleetConfig) WithDefaults() FleetConfig {
	if c.NumPoPs == 0 {
		c.NumPoPs = 6
	}
	if c.ServersPerPoP == 0 {
		c.ServersPerPoP = 14
	}
	return c
}

// Fleet is one shard's view of the CDN deployment: the effective
// configuration plus the single server the shard owns, slot `slot` of
// PoP popID. Server identity (ID, RNG stream, backend sampler) depends
// only on (seed, popID, slot), never on which other servers exist, so
// every shard's server is the one a whole deployment would hold in that
// position.
type Fleet struct {
	cfg     FleetConfig
	popID   int
	servers []*Server // indexed by slot; nil except at the built slot
}

// NewSlotFleet builds the fleet holding a single server: slot `slot` of
// PoP popID. The per-PoP RNG stream is advanced past the earlier slots,
// so the server's streams are the ones it would draw in slot order inside
// a whole PoP — the property that lets the session runner shard by
// server. popID must be in [0, NumPoPs) and slot a value SlotFor can
// return, i.e. in [0, ServersPerPoP); out-of-range values panic.
func NewSlotFleet(cfg FleetConfig, seed uint64, popID, slot int) *Fleet {
	cfg = cfg.WithDefaults()
	if popID < 0 || popID >= cfg.NumPoPs {
		panic("cdn: NewSlotFleet PoP out of range")
	}
	if slot < 0 || slot >= cfg.ServersPerPoP {
		panic("cdn: NewSlotFleet slot out of range")
	}
	r := popRand(seed, popID)
	for s := 0; s < slot; s++ {
		r.Split() // backend stream of the earlier slot
		r.Split() // server stream of the earlier slot
	}
	f := &Fleet{cfg: cfg, popID: popID, servers: make([]*Server, cfg.ServersPerPoP)}
	be := backend.New(r.Split())
	f.servers[slot] = NewServer(popID*cfg.ServersPerPoP+slot, popID, cfg.Server, be, r.Split())
	return f
}

// popRand derives a PoP's RNG root from (seed, popID) alone — not from a
// shared sequential stream — so a server's streams do not depend on which
// other PoPs exist.
func popRand(seed uint64, popID int) *stats.Rand {
	return stats.NewRand(mix(seed^0x5eed5eed5eed5eed) ^ mix(uint64(popID)+1))
}

// Config returns the effective fleet configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// SlotFor implements the paper's cache-focused traffic engineering: it
// returns the server slot within a PoP that serves the (video, session)
// pair. Within the client's PoP a video is consistently hashed to one
// server so that server's cache stays hot for it; when partitioning is
// enabled, the most popular ranks are instead spread per-session across
// the PoP's servers to balance load. cfg must be the effective
// configuration (FleetConfig.WithDefaults). A session touches exactly one
// slot for its whole lifetime — the video is fixed and, for partitioned
// top ranks, the hash includes the session ID but not the chunk — which
// is what makes per-server sharding sound.
func SlotFor(cfg FleetConfig, videoID, videoRank int, sessionID uint64) int {
	if cfg.PartitionTopRanks > 0 && videoRank < cfg.PartitionTopRanks {
		return int(mix(uint64(videoID)*0x9e3779b97f4a7c15^sessionID) % uint64(cfg.ServersPerPoP))
	}
	return int(mix(uint64(videoID)) % uint64(cfg.ServersPerPoP))
}

// PoPServers returns the server slots of one PoP (for warmup and
// inspection), or nil for any PoP but the built one. Slots other than the
// built one are nil.
func (f *Fleet) PoPServers(popID int) []*Server {
	if popID != f.popID {
		return nil
	}
	return f.servers
}

// mix is a 64-bit finalizer (splitmix64) used for consistent hashing and
// for deriving per-PoP RNG roots.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
