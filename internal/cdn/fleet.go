package cdn

import (
	"fmt"

	"vidperf/internal/backend"
	"vidperf/internal/stats"
)

// FleetConfig describes the CDN deployment: PoPs, servers per PoP, the
// per-server configuration, and the client-mapping policy.
type FleetConfig struct {
	NumPoPs       int // default 6 (geo.DefaultPoPs)
	ServersPerPoP int // default 14 (≈85 servers total, paper §3)

	Server  Config
	Backend backend.Config

	// PartitionTopRanks spreads videos with rank < PartitionTopRanks over
	// all servers of a PoP (per-session hashing) instead of pinning them
	// to one cache-focused server — the §4.1 load-balancing take-away.
	// 0 disables partitioning.
	PartitionTopRanks int
}

// WithDefaults returns the effective configuration with zero fields
// replaced by their defaults. Callers that partition work by PoP use it to
// learn the effective NumPoPs before any server is built.
func (c FleetConfig) WithDefaults() FleetConfig {
	if c.NumPoPs == 0 {
		c.NumPoPs = 6
	}
	if c.ServersPerPoP == 0 {
		c.ServersPerPoP = 14
	}
	return c
}

// Fleet is the deployed server set plus the traffic-engineering mapping.
// A Fleet may be partial: NewPoPFleet builds only one PoP's servers, so
// shards of a partitioned simulation pay for exactly the servers their
// sessions can reach. Server identity (ID, RNG stream, backend sampler)
// depends only on (seed, popID, slot), never on which other PoPs exist,
// so a partial fleet's servers behave identically to the same servers
// inside a full fleet.
type Fleet struct {
	cfg  FleetConfig
	pops [][]*Server // indexed by PoP ID; nil for PoPs not built
}

// NewFleet builds every PoP's servers from the scenario seed.
func NewFleet(cfg FleetConfig, seed uint64) *Fleet {
	cfg = cfg.WithDefaults()
	f := &Fleet{cfg: cfg, pops: make([][]*Server, cfg.NumPoPs)}
	for pop := 0; pop < cfg.NumPoPs; pop++ {
		f.pops[pop] = buildPoP(cfg, seed, pop)
	}
	return f
}

// NewPoPFleet builds a partial fleet holding only popID's servers. An
// out-of-range popID clamps to 0, mirroring ServerFor's fallback.
func NewPoPFleet(cfg FleetConfig, seed uint64, popID int) *Fleet {
	cfg = cfg.WithDefaults()
	if popID < 0 || popID >= cfg.NumPoPs {
		popID = 0
	}
	f := &Fleet{cfg: cfg, pops: make([][]*Server, cfg.NumPoPs)}
	f.pops[popID] = buildPoP(cfg, seed, popID)
	return f
}

// NewSlotFleet builds a partial fleet holding a single server: slot
// `slot` of PoP popID. The per-PoP RNG stream is advanced past the
// earlier slots exactly as buildPoP would, so the one server is
// identical to the same slot inside a full PoP — the property that lets
// the session runner shard below PoP granularity. An out-of-range popID
// clamps to 0 (mirroring ServerFor's fallback); slot must be a value
// SlotFor can return, i.e. in [0, ServersPerPoP).
func NewSlotFleet(cfg FleetConfig, seed uint64, popID, slot int) *Fleet {
	cfg = cfg.WithDefaults()
	if popID < 0 || popID >= cfg.NumPoPs {
		popID = 0
	}
	if slot < 0 || slot >= cfg.ServersPerPoP {
		panic("cdn: NewSlotFleet slot out of range")
	}
	f := &Fleet{cfg: cfg, pops: make([][]*Server, cfg.NumPoPs)}
	r := popRand(seed, popID)
	for s := 0; s < slot; s++ {
		r.Split() // backend stream of the earlier slot
		r.Split() // server stream of the earlier slot
	}
	servers := make([]*Server, cfg.ServersPerPoP)
	servers[slot] = buildSlot(cfg, popID, slot, r)
	f.pops[popID] = servers
	return f
}

// popRand derives a PoP's RNG root from (seed, popID) alone — not from a
// shared sequential stream — which is what makes sharded and whole-fleet
// construction agree.
func popRand(seed uint64, popID int) *stats.Rand {
	return stats.NewRand(mix(seed^0x5eed5eed5eed5eed) ^ mix(uint64(popID)+1))
}

// buildPoP constructs one PoP's server slice.
func buildPoP(cfg FleetConfig, seed uint64, popID int) []*Server {
	r := popRand(seed, popID)
	servers := make([]*Server, cfg.ServersPerPoP)
	for slot := 0; slot < cfg.ServersPerPoP; slot++ {
		servers[slot] = buildSlot(cfg, popID, slot, r)
	}
	return servers
}

// buildSlot constructs one server, drawing its backend and server RNG
// streams from the PoP stream in slot order.
func buildSlot(cfg FleetConfig, popID, slot int, r *stats.Rand) *Server {
	id := popID*cfg.ServersPerPoP + slot
	be := backend.New(cfg.Backend, r.Split())
	return NewServer(id, popID, cfg.Server, be, r.Split())
}

// Config returns the effective fleet configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// NumServers returns the number of servers actually built. Slot fleets
// count only their single server.
func (f *Fleet) NumServers() int {
	n := 0
	for _, srvs := range f.pops {
		for _, srv := range srvs {
			if srv != nil {
				n++
			}
		}
	}
	return n
}

// Servers returns every built server in ID order.
func (f *Fleet) Servers() []*Server {
	out := make([]*Server, 0, f.NumServers())
	for _, srvs := range f.pops {
		for _, srv := range srvs {
			if srv != nil {
				out = append(out, srv)
			}
		}
	}
	return out
}

// BuiltPoPs lists the PoP IDs this fleet holds servers for, ascending.
func (f *Fleet) BuiltPoPs() []int {
	var out []int
	for pop, srvs := range f.pops {
		if srvs != nil {
			out = append(out, pop)
		}
	}
	return out
}

// ClampPoP maps an arbitrary PoP ID onto one this fleet serves: in-range
// built PoPs map to themselves, everything else to the first built PoP.
// Partitioners must use the same rule so every session lands on a shard
// whose fleet can serve it.
func (f *Fleet) ClampPoP(popID int) int {
	if popID >= 0 && popID < len(f.pops) && f.pops[popID] != nil {
		return popID
	}
	for pop, srvs := range f.pops {
		if srvs != nil {
			return pop
		}
	}
	panic("cdn: fleet has no servers")
}

// ServerFor implements the paper's cache-focused traffic engineering:
// within the client's PoP, a video is consistently hashed to one server so
// that server's cache stays hot for it. When partitioning is enabled, the
// most popular ranks are instead spread per-session across the PoP's
// servers to balance load.
func (f *Fleet) ServerFor(popID, videoID, videoRank int, sessionID uint64) *Server {
	popID = f.ClampPoP(popID)
	return f.pops[popID][SlotFor(f.cfg, videoID, videoRank, sessionID)]
}

// SlotFor returns the server slot within a PoP that ServerFor maps the
// (video, session) pair to. It is exported so partitioners can bucket
// sessions at server granularity before any server exists; cfg must be
// the effective configuration (FleetConfig.WithDefaults). A session
// touches exactly one slot for its whole lifetime — the video is fixed
// and, for partitioned top ranks, the hash includes the session ID but
// not the chunk — which is what makes per-server sharding sound.
func SlotFor(cfg FleetConfig, videoID, videoRank int, sessionID uint64) int {
	if cfg.PartitionTopRanks > 0 && videoRank < cfg.PartitionTopRanks {
		return int(mix(uint64(videoID)*0x9e3779b97f4a7c15^sessionID) % uint64(cfg.ServersPerPoP))
	}
	return int(mix(uint64(videoID)) % uint64(cfg.ServersPerPoP))
}

// PoPServers returns the servers of one PoP (for warmup and inspection),
// or nil when the PoP is out of range or not built in this fleet.
func (f *Fleet) PoPServers(popID int) []*Server {
	if popID < 0 || popID >= len(f.pops) {
		return nil
	}
	return f.pops[popID]
}

// String summarizes the fleet (useful in shard logs).
func (f *Fleet) String() string {
	return fmt.Sprintf("fleet{%d/%d PoPs, %d servers}",
		len(f.BuiltPoPs()), f.cfg.NumPoPs, f.NumServers())
}

// mix is a 64-bit finalizer (splitmix64) used for consistent hashing and
// for deriving per-PoP RNG roots.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
