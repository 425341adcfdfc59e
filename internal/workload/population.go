// Package workload generates the synthetic population that replays the
// paper's §3 dataset statistics: client /24 prefixes with geography and
// organization types, the browser/OS mix (Chrome 43 / Firefox 37 / IE 13 /
// Safari 6 / other 2; Windows 88.5 / OS X 9.4), Zipf-popular videos,
// proxy-funneled sessions (≈23% removed by preprocessing), and per-session
// plans (platform, path, watch length) the session runner executes.
package workload

import (
	"fmt"
	"math"
	"strconv"

	"vidperf/internal/cache"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/clientstack"
	"vidperf/internal/geo"
	"vidperf/internal/live"
	"vidperf/internal/netpath"
	"vidperf/internal/proxypop"
	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
	"vidperf/internal/timeline"
)

// Scenario is the master configuration of one simulated measurement
// campaign. Zero fields take defaults that reproduce the paper's shapes at
// laptop scale.
type Scenario struct {
	Seed        uint64
	NumSessions int // default 20000
	NumPrefixes int // default 2500

	Catalog catalog.Config
	Fleet   cdn.FleetConfig

	// ABRName selects the adaptation algorithm ("hybrid" default;
	// see internal/abr for the ablation variants).
	ABRName string

	// Population mix.
	NonUSFrac            float64 // default 0.07 (paper: >93% North America)
	EnterprisePrefixFrac float64 // default 0.10
	SmallBizPrefixFrac   float64 // default 0.08
	ResidentialProxyFrac float64 // default 0.21 (transparent ISP proxies)

	// Session behaviour.
	MeanWatchedChunks float64 // default 10 (geometric-ish abandonment)
	StartThresholdSec float64 // default 6 (one chunk)
	MaxBufferSec      float64 // default 18 (player high-water mark)

	// ArrivalWindowMS spreads session starts uniformly over this window
	// (default 30 minutes), interleaving sessions at the servers.
	ArrivalWindowMS float64

	// ArrivalOffsetMS shifts every arrival (and the timeline, if any) by a
	// constant virtual-time offset without changing a single RNG draw: the
	// plan head still draws arrivals relative to the window, and the offset
	// is added afterwards. Continuous service mode (internal/serve) uses it
	// to stack an open-ended sequence of window campaigns end to end on one
	// virtual clock; the zero value is byte-identical to the pre-offset
	// behaviour.
	ArrivalOffsetMS float64

	// GPUFrac is the share of clients with hardware rendering
	// (default 0.45).
	GPUFrac float64

	// ColdStart skips cache pre-warming, simulating a freshly deployed
	// CDN instead of the steady state the paper measures (ablation).
	ColdStart bool

	// Parallelism caps how many server-slot shards the session runner executes
	// concurrently: 0 uses GOMAXPROCS, 1 runs the shards sequentially.
	// A session never leaves its one server and every shard's randomness
	// derives from (Seed, PoP, slot) or (Seed, session ID) alone, so the
	// merged trace is byte-identical at every setting — Parallelism only
	// changes wall-clock time.
	Parallelism int

	// Timeline injects faults and degradations at scheduled virtual
	// times (internal/timeline): PoP outages with failover, backend
	// brownouts, cache shrinks, path degradation, and flash-crowd
	// arrival surges. Per-session effects latch at each session's
	// (possibly rate-warped) arrival time, so the zero value — no
	// phases — is byte-identical to a scenario without a timeline.
	Timeline timeline.Timeline

	// Live switches the catalog from on-demand titles to linear channels
	// (internal/live): sessions join a channel at the live edge and may
	// only request chunks the publish clock has released. The zero value
	// (no channels) is byte-identical to a scenario without live mode —
	// the one channel draw it adds happens only when live is enabled.
	Live live.Config

	// Proxy assigns a share of sessions to shared-egress cohorts with
	// tromboned paths (internal/proxypop) — the populations the paper's
	// §3 preprocessing filters out, modeled instead of discarded. The
	// zero value (no share) is byte-identical to a scenario without the
	// block — the one placement draw it adds happens only when enabled.
	Proxy proxypop.Config
}

// WithDefaults returns the effective scenario with zero fields replaced
// by their defaults — the values Build itself will simulate. Spec loaders
// (internal/experiment) and tests use it to report or assert the
// effective configuration without re-stating the default table.
func (s Scenario) WithDefaults() Scenario {
	if s.NumSessions == 0 {
		s.NumSessions = 20000
	}
	if s.NumPrefixes == 0 {
		s.NumPrefixes = 2500
	}
	if s.ABRName == "" {
		s.ABRName = "hybrid"
	}
	if s.NonUSFrac == 0 {
		s.NonUSFrac = 0.07
	}
	if s.EnterprisePrefixFrac == 0 {
		s.EnterprisePrefixFrac = 0.10
	}
	if s.SmallBizPrefixFrac == 0 {
		s.SmallBizPrefixFrac = 0.08
	}
	if s.ResidentialProxyFrac == 0 {
		s.ResidentialProxyFrac = 0.21
	}
	if s.MeanWatchedChunks == 0 {
		s.MeanWatchedChunks = 10
	}
	if s.StartThresholdSec == 0 {
		s.StartThresholdSec = 6
	}
	if s.MaxBufferSec == 0 {
		// Players pace requests once the buffer reaches the high-water
		// mark; 18 s is a typical production target and gives sessions
		// the idle gaps the 500 ms kernel sampler observes.
		s.MaxBufferSec = 18
	}
	if s.ArrivalWindowMS == 0 {
		s.ArrivalWindowMS = 30 * 60 * 1000
	}
	if s.GPUFrac == 0 {
		s.GPUFrac = 0.45
	}
	s.Live = s.Live.WithDefaults()
	s.Proxy = s.Proxy.WithDefaults()
	return s
}

// Validate is the range check for an effective scenario: every count at
// least 1, parallel at least 0, every size, duration and exponent
// positive, every fraction in [0, 1], 1 to 6 PoPs, a valid bitrate
// ladder, a known cache policy, and valid timeline, live and proxy
// blocks. A zero knob selects its default, so only its explicit value is
// checked. Errors name the knob by its spec key (the Go field where no
// key exists). The ABR name is checked by session.NewABR.
func (s Scenario) Validate() error {
	const frac = "in [0, 1]"
	s = s.WithDefaults()
	srv := s.Fleet.Server
	for _, k := range []struct {
		key  string
		v    float64
		want string
	}{
		{"sessions", float64(s.NumSessions), ">= 1"},
		{"prefixes", float64(s.NumPrefixes), ">= 1"},
		{"videos", float64(s.Catalog.NumVideos), ">= 1"},
		{"servers_per_pop", float64(s.Fleet.ServersPerPoP), ">= 1"},
		{"workers", float64(srv.Workers), ">= 1"},
		{"parallel", float64(s.Parallelism), ">= 0"},
		{"prefetch", float64(srv.Prefetch), ">= 0"},
		{"partition_top_ranks", float64(s.Fleet.PartitionTopRanks), ">= 0"},
		{"ram_gb", float64(srv.RAMBytes) / (1 << 30), "> 0"},
		{"disk_gb", float64(srv.DiskBytes) / (1 << 30), "> 0"},
		{"zipf_s", s.Catalog.ZipfExponent, "> 0"},
		{"chunk_sec", s.Catalog.ChunkDuration, "> 0"},
		{"mean_watched_chunks", s.MeanWatchedChunks, "> 0"},
		{"start_threshold_sec", s.StartThresholdSec, "> 0"},
		{"max_buffer_sec", s.MaxBufferSec, "> 0"},
		{"arrival_window_min", s.ArrivalWindowMS / 60000, "> 0"},
		{"open_retry_ms", srv.OpenRetryMS, "> 0"},
		{"ArrivalOffsetMS", s.ArrivalOffsetMS, ">= 0"},
		{"non_us_frac", s.NonUSFrac, frac},
		{"enterprise_frac", s.EnterprisePrefixFrac, frac},
		{"small_biz_frac", s.SmallBizPrefixFrac, frac},
		{"proxy_frac", s.ResidentialProxyFrac, frac},
		{"gpu_frac", s.GPUFrac, frac},
	} {
		// Zero is always legal (it selects the default), so every range
		// reduces to a finite non-negative value, at most 1 for a fraction.
		if !(k.v >= 0) || math.IsInf(k.v, 1) || k.want == frac && k.v > 1 {
			return fmt.Errorf("workload: %s %v, want %s", k.key, k.v, k.want)
		}
	}
	pops := s.Fleet.WithDefaults().NumPoPs
	if n := len(geo.DefaultPoPs()); pops < 1 || pops > n {
		return fmt.Errorf("workload: pops %d, want 1 to %d", pops, n)
	}
	if srv.Policy != "" {
		if _, ok := cache.NewPolicy(srv.Policy, 1); !ok {
			return fmt.Errorf("workload: cache_policy %q, want lru, lfu, perfect-lfu, gd-size or gdsf", srv.Policy)
		}
	}
	if err := catalog.ValidateBitrates(s.Catalog.Bitrates); err != nil {
		return err
	}
	if err := s.Timeline.Validate(); err != nil {
		return err
	}
	if err := s.Timeline.ValidatePoPs(pops); err != nil {
		return err
	}
	if err := s.Live.Validate(); err != nil {
		return err
	}
	return s.Proxy.Validate()
}

// Prefix is one client /24 with its persistent location and path profile.
type Prefix struct {
	ID      int
	Label   string // synthetic CIDR label
	City    string
	Country string
	US      bool
	Loc     geo.Coord
	PoP     int
	DistKM  float64
	Profile netpath.Profile
	Weight  float64
	// EgressIP is non-empty when the prefix sits behind a proxy; all its
	// sessions share it at the CDN.
	EgressIP string
}

// Population is the generated client+content world.
type Population struct {
	Scenario Scenario
	Prefixes []Prefix
	Catalog  *catalog.Catalog
	PoPs     []geo.PoP

	cumWeights []float64
	// warp is the timeline's precomputed arrival-rate transform (nil =
	// identity); built once here because the planner warps twice per
	// session.
	warp *timeline.ArrivalWarp

	// liveVideos are the per-channel synthetic assets of a live scenario
	// (empty otherwise); liveWeights is the channel-popularity mass the
	// join draw samples from.
	liveVideos  []catalog.Video
	liveWeights []float64

	// proxyCohorts is the shared-egress cohort table of a proxied
	// scenario (empty otherwise), indexed by Cohort.ID-1.
	proxyCohorts []proxypop.Cohort
}

// liveVideoIDBase offsets channel video IDs far above any catalog title
// ID, so live chunk keys can never collide with VoD chunk keys. Channel
// chunk indices stay well under catalog.ChunkKey's 20-bit index field
// (a 30-minute window at 1-second chunks is ~1800 chunks).
const liveVideoIDBase = 1 << 20

// liveSlackChunks extends each channel's schedule past the live edge at
// the end of the arrival window, so late joiners still have a full watch
// length of chunks ahead of them.
const liveSlackChunks = 2048

// Build generates the population for sc. The same seed yields the same
// population. Prefixes map to the nearest of the first Fleet.NumPoPs
// entries of geo.DefaultPoPs. Build assumes a scenario that passes
// Validate, which session.Execute checks before it builds one.
func Build(sc Scenario) *Population {
	sc = sc.WithDefaults()
	r := stats.NewRand(sc.Seed ^ 0xa5a5a5a5deadbeef)
	pops := geo.DefaultPoPs()
	if n := sc.Fleet.WithDefaults().NumPoPs; n >= 1 && n < len(pops) {
		pops = pops[:n]
	}
	pop := &Population{
		Scenario: sc,
		Catalog:  catalog.New(sc.Catalog, r.Split()),
		PoPs:     pops,
		warp:     sc.Timeline.NewArrivalWarp(sc.ArrivalWindowMS),
	}
	pop.buildPrefixes(r.Split())
	pop.buildLiveChannels()
	pop.buildProxyCohorts()
	return pop
}

// buildProxyCohorts materializes the shared-egress cohort table of a
// proxied scenario. Cohort penalties hash from (seed, cohort ID) and
// the egress contention is a closed-form mean-field share, so building
// the table consumes no RNG draws — the population draw streams are
// byte-identical with the block disabled or absent.
func (p *Population) buildProxyCohorts() {
	pc := p.Scenario.Proxy
	if !pc.Enabled() {
		return
	}
	chunkSec := p.Catalog.ChunkDuration
	if p.Scenario.Live.Enabled() {
		chunkSec = p.Scenario.Live.ChunkDurationSec
	}
	conc := pc.ExpectedConcurrent(p.Scenario.NumSessions, p.Scenario.MeanWatchedChunks,
		chunkSec, p.Scenario.ArrivalWindowMS)
	p.proxyCohorts = pc.BuildCohorts(p.Scenario.Seed, pc.PerSessionEgressKbps(conc))
}

// ProxyCohort returns cohort id's table entry (1-based, matching
// SessionPlan.ProxyCohort). Valid only for proxied scenarios and
// 1 <= id <= Proxy.Cohorts.
func (p *Population) ProxyCohort(id int) *proxypop.Cohort { return &p.proxyCohorts[id-1] }

// buildLiveChannels materializes one synthetic asset per linear channel:
// a long-running "video" whose chunk i the publish clock releases at
// i·chunk_dur. Channel popularity is uniform or zipf-skewed per the live
// config. Channel ranks sit above any PartitionTopRanks setting on
// purpose: a channel consistent-hashes to ONE server slot per PoP (like
// a real live CDN pinning a stream to an edge server), so every viewer
// of a channel shares that server's synchronized hot edge. Per-session
// top-rank spreading would fragment the edge into one miss per slot.
func (p *Population) buildLiveChannels() {
	lc := p.Scenario.Live
	if !lc.Enabled() {
		return
	}
	n := lc.EdgeChunk(p.Scenario.ArrivalWindowMS) + 1 + liveSlackChunks
	p.liveVideos = make([]catalog.Video, lc.Channels)
	p.liveWeights = make([]float64, lc.Channels)
	var zipf *stats.Zipf
	if lc.JoinDist == live.JoinZipf {
		zipf = stats.NewZipf(lc.Channels, lc.JoinZipfS)
	}
	for ch := range p.liveVideos {
		p.liveVideos[ch] = catalog.Video{
			ID:          liveVideoIDBase + ch,
			Rank:        liveVideoIDBase + ch,
			DurationSec: float64(n) * lc.ChunkDurationSec,
			NumChunks:   n,
		}
		if zipf != nil {
			p.liveWeights[ch] = zipf.Prob(ch)
		} else {
			p.liveWeights[ch] = 1
		}
	}
}

// LiveVideo returns channel ch's synthetic asset. Valid only for live
// scenarios and 0 <= ch < Live.Channels.
func (p *Population) LiveVideo(ch int) *catalog.Video { return &p.liveVideos[ch] }

func (p *Population) buildPrefixes(r *stats.Rand) {
	sc := p.Scenario
	usCities := geo.USCities()
	intlCities := geo.InternationalCities()
	usW := cityWeights(usCities)
	intlW := cityWeights(intlCities)

	enterpriseOrg := 0
	resISPs := []string{
		"ResidentialISP#1", "ResidentialISP#2", "ResidentialISP#3",
		"ResidentialISP#4", "ResidentialISP#5",
		"RegionalISP#1", "RegionalISP#2", "RegionalISP#3",
	}
	resISPW := []float64{22, 19, 15, 12, 10, 3, 2, 2}

	for i := 0; i < sc.NumPrefixes; i++ {
		var city geo.City
		us := !r.Bool(sc.NonUSFrac)
		if us {
			city = usCities[r.Choice(usW)]
		} else {
			city = intlCities[r.Choice(intlW)]
		}
		// Scatter clients around the metro center.
		loc := geo.Coord{
			Lat: city.Loc.Lat + r.Norm(0, 0.35),
			Lon: city.Loc.Lon + r.Norm(0, 0.35),
		}
		popIdx, dist := geo.NearestPoP(loc, p.PoPs)
		prop := geo.PropagationRTTms(dist, r.Uniform(1.6, 2.4))

		pr := Prefix{
			ID:      i,
			Label:   fmt.Sprintf("prefix-%04d/24", i),
			City:    city.Name,
			Country: city.Country,
			US:      us,
			Loc:     loc,
			PoP:     popIdx,
			DistKM:  dist,
		}

		switch {
		case r.Bool(sc.EnterprisePrefixFrac):
			pr.Profile = netpath.EnterpriseProfile(prop, r)
			// Enterprises cluster into orgs of a few prefixes; org sizes
			// are heavy-tailed so Table 4's session counts span decades.
			if enterpriseOrg == 0 || r.Bool(0.3) {
				enterpriseOrg++
			}
			pr.Profile.OrgName = fmt.Sprintf("Enterprise#%d", enterpriseOrg)
			pr.Weight = r.Pareto(0.4, 1.3)
		case r.Bool(sc.SmallBizPrefixFrac / (1 - sc.EnterprisePrefixFrac)):
			pr.Profile = netpath.SmallBusinessProfile(prop, r)
			pr.Profile.OrgName = fmt.Sprintf("SmallBiz#%d", i%97)
			pr.Weight = r.Pareto(0.3, 1.4)
		default:
			pr.Profile = netpath.ResidentialProfile(prop, r)
			isp := r.Choice(resISPW)
			pr.Profile.OrgName = resISPs[isp]
			pr.Profile.Proxy = r.Bool(sc.ResidentialProxyFrac)
			pr.Weight = r.Pareto(1.0, 1.6)
		}
		if pr.Profile.Proxy {
			pr.EgressIP = fmt.Sprintf("proxy-%s", pr.Profile.OrgName)
		}
		p.Prefixes = append(p.Prefixes, pr)
	}

	p.cumWeights = make([]float64, len(p.Prefixes))
	var cum float64
	for i := range p.Prefixes {
		cum += p.Prefixes[i].Weight
		p.cumWeights[i] = cum
	}
}

func cityWeights(cs []geo.City) []float64 {
	w := make([]float64, len(cs))
	for i, c := range cs {
		w[i] = c.Weight
	}
	return w
}

// SamplePrefix draws a prefix proportionally to session weight.
func (p *Population) SamplePrefix(r *stats.Rand) *Prefix {
	x := r.Float64() * p.cumWeights[len(p.cumWeights)-1]
	lo, hi := 0, len(p.cumWeights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cumWeights[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return &p.Prefixes[lo]
}

// SessionPlan is everything one session needs to run.
type SessionPlan struct {
	ID        uint64
	ArrivalMS float64
	Prefix    *Prefix
	Video     *catalog.Video
	// WatchChunks is how many chunks the viewer stays for.
	WatchChunks int
	Platform    clientstack.Platform
	// HiddenProb is the per-chunk probability the player is not visible.
	HiddenProb float64
	PathParams tcpmodel.Params
	Stack      clientstack.StackProfile
	// ClientIP / EgressIP implement the §3 proxy-detection signals.
	ClientIP string
	HTTPIP   string

	// Live marks a live-mode session: Video is channel LiveChannel's
	// synthetic asset and playback starts at absolute chunk
	// LiveJoinChunk (the live edge at arrival, minus the join margin),
	// not chunk 0. The runner gates every request on the publish clock.
	Live          bool
	LiveChannel   int
	LiveJoinChunk int

	// Proxied marks a session placed behind a shared egress by the
	// proxy block; ProxyCohort is its 1-based cohort ID (0 otherwise).
	// The cohort's trombone is already folded into PathParams and its
	// egress identity into HTTPIP (and, for non-mismatch sessions,
	// ClientIP), so the session runner only carries the labels through.
	Proxied     bool
	ProxyCohort int

	// ServingPoP is the PoP that serves the session: the prefix's PoP
	// unless a timeline phase has it down at the session's arrival, in
	// which case it is the phase's failover PoP.
	ServingPoP int
	// BackendFactor scales D_BE for the session's cache-miss fetches
	// (timeline backend brownout); 1 outside brownout phases.
	BackendFactor float64
	// FailedOver marks sessions redirected by a PoP outage phase.
	FailedOver bool
}

// PlanSession draws session id's plan. Plans are deterministic in
// (scenario seed, id), and the draws that place a session on a shard
// (prefix, video, arrival) come from planHead, the same replay
// PartitionBySlot uses.
//
// When the scenario has a timeline, the uniform arrival draw is warped
// through the timeline's arrival-rate function and the phase active at
// the warped arrival (if any) overlays its per-session effects: path
// degradation, backend brownout factor, PoP failover. Both steps are
// pure transforms — no extra RNG draws — so an empty timeline yields
// exactly the pre-timeline plan.
func (p *Population) PlanSession(id uint64) SessionPlan {
	r, pre, video, watch, arrival, lv := p.planHead(id)
	plan := SessionPlan{
		ID:            id,
		ArrivalMS:     arrival,
		Prefix:        pre,
		Video:         video,
		WatchChunks:   watch,
		Live:          p.Scenario.Live.Enabled(),
		LiveChannel:   lv.Channel,
		LiveJoinChunk: lv.Join,
		Platform:      samplePlatform(&r, p.Scenario.GPUFrac),
		PathParams:    pre.Profile.SessionParams(&r),
		ClientIP:      beaconIP(pre.ID, 1+r.Intn(250)),
		ServingPoP:    pre.PoP,
		BackendFactor: 1,
	}
	plan.Stack = clientstack.NewStackProfile(plan.Platform, &r)
	if r.Bool(0.15) {
		plan.HiddenProb = 0.5
	}
	plan.HTTPIP = plan.ClientIP
	switch {
	case p.Scenario.Proxy.Enabled():
		// The proxy block supersedes the legacy per-prefix egress: one
		// placement draw decides membership, cohort, and beacon
		// mismatch, so the configured share is the exact ground truth.
		if a := p.Scenario.Proxy.Assign(r.Float64()); a.Proxied {
			co := p.ProxyCohort(a.Cohort)
			plan.Proxied = true
			plan.ProxyCohort = a.Cohort
			plan.HTTPIP = co.EgressIP
			if !a.Mismatch {
				// The beacon itself egresses through the proxy: both
				// addresses agree and only the shared-IP volume rule
				// (§3 rule ii) can catch the session.
				plan.ClientIP = co.EgressIP
			}
			plan.PathParams = co.Trombone.Apply(plan.PathParams)
		}
	case pre.EgressIP != "":
		plan.HTTPIP = pre.EgressIP
		// Most proxies also expose the IP mismatch between the CDN's
		// view and the player beacon (§3 rule i); the rest are caught by
		// the shared-IP volume rule (ii).
		if !r.Bool(0.7) {
			plan.ClientIP = plan.HTTPIP
		}
	}
	// Phase effects latch on the window-relative arrival; the constant
	// campaign offset is added last so a timeline and an offset compose as
	// a rigid shift of the whole window.
	p.applyPhaseEffects(&plan)
	plan.ArrivalMS += p.Scenario.ArrivalOffsetMS
	return plan
}

// beaconIP renders the player beacon's address 10.(prefix/250).(prefix%250).host
// with strconv appends into a stack buffer, so the string is the one
// allocation.
func beaconIP(prefix, host int) string {
	var b [24]byte
	buf := append(b[:0], "10."...)
	buf = strconv.AppendInt(buf, int64(prefix/250), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(prefix%250), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(host), 10)
	return string(buf)
}

// warpArrival maps a nominal uniform arrival draw through the timeline's
// precomputed arrival-rate transform (identity without a timeline).
func (p *Population) warpArrival(u float64) float64 {
	return p.warp.At(u)
}

// liveHead is the live-mode part of a plan head: the joined channel and
// the arrival-derived start chunk. Zero for VoD scenarios.
type liveHead struct {
	Channel int
	Join    int
}

// planHead replays the shared head of session id's plan — the prefix,
// video, watch-length, and (warped) arrival draws, in exactly the order
// PlanSession consumes them — and returns the RNG positioned for the
// remaining draws. It is the single place that draw order lives, so the
// partitioner and the full planner can never disagree. The generator is
// returned by value and stays on the caller's stack. The returned
// arrival is window-relative: timeline phase lookups key on it, and
// callers that need the virtual-clock arrival add Scenario.ArrivalOffsetMS
// themselves.
//
// In live mode one extra draw (the channel) follows the arrival draw,
// the channel's asset replaces the sampled title, and the join chunk
// derives from the arrival with no further randomness — so a disabled
// live block leaves the draw stream untouched.
func (p *Population) planHead(id uint64) (r stats.Rand, pre *Prefix, video *catalog.Video, watch int, arrival float64, lv liveHead) {
	r = *stats.NewRand(p.Scenario.Seed ^ (id * 0x9e3779b97f4a7c15))
	pre = p.SamplePrefix(&r)
	video = p.Catalog.Sample(&r)
	rawWatch := 1 + int(r.Exp(p.Scenario.MeanWatchedChunks-1))
	watch = rawWatch
	if watch > video.NumChunks {
		watch = video.NumChunks
	}
	arrival = p.warpArrival(r.Uniform(0, p.Scenario.ArrivalWindowMS))
	if p.Scenario.Live.Enabled() {
		lv.Channel = r.Choice(p.liveWeights)
		video = &p.liveVideos[lv.Channel]
		lv.Join = p.Scenario.Live.JoinChunk(arrival)
		watch = rawWatch
		if max := video.NumChunks - lv.Join; watch > max {
			watch = max
		}
		if watch < 1 {
			watch = 1
		}
	}
	return r, pre, video, watch, arrival, lv
}

// servingPoP applies the timeline's PoP-outage failover (if any) to a
// session's home PoP at its arrival time — the same rule
// applyPhaseEffects uses for the full plan.
func (p *Population) servingPoP(home int, arrival float64) int {
	if ph := p.Scenario.Timeline.PhaseAt(arrival); ph != nil && ph.Effects.PoPIsDown(home) {
		return ph.Effects.FailoverPoP
	}
	return home
}

// applyPhaseEffects overlays the per-session effects of the timeline
// phase active at the plan's arrival time: network-path degradation,
// the backend brownout factor, and PoP failover. All mutations are pure
// functions of the already-drawn plan, so determinism holds and
// PartitionBySlot, which replays only the plan head, agrees with the
// plan's ServingPoP and ArrivalMS.
func (p *Population) applyPhaseEffects(plan *SessionPlan) {
	ph := p.Scenario.Timeline.PhaseAt(plan.ArrivalMS)
	if ph == nil {
		return
	}
	e := ph.Effects
	plan.PathParams.BaseRTTms += e.ExtraRTTms
	plan.PathParams.RandomLossProb += e.ExtraLossProb
	if plan.PathParams.RandomLossProb > 1 {
		plan.PathParams.RandomLossProb = 1
	}
	if e.ThroughputFactor > 0 {
		plan.PathParams.BottleneckKbps *= e.ThroughputFactor
		// Keep the floor SessionParams enforces: a degraded link still
		// moves some bytes.
		if plan.PathParams.BottleneckKbps < 300 {
			plan.PathParams.BottleneckKbps = 300
		}
	}
	plan.BackendFactor = e.BackendFactor()
	if e.PoPIsDown(plan.Prefix.PoP) {
		plan.ServingPoP = e.FailoverPoP
		plan.FailedOver = true
		plan.PathParams.BaseRTTms += e.FailoverExtraRTTms
	}
}

// SessionRef is the compact per-session record a partition retains: the
// ID plus the already-computed arrival time, so the runner schedules
// arrivals without replaying the plan head a second time. Sixteen bytes
// per session keeps 10M-session campaigns cheap to stage.
type SessionRef struct {
	ID        uint64
	ArrivalMS float64
}

// PartitionBySlot buckets session IDs 1..NumSessions by (serving PoP,
// server slot) — the true interaction granularity of the simulation:
// a session's chunks all land on one server (see cdn.SlotFor), and
// sessions on different servers share no mutable state, so every bucket
// is an independent event system. The returned slice is indexed by
// pop*ServersPerPoP+slot. cfg.NumPoPs must be the population's PoP count
// and the timeline's failover PoPs must lie below it (the runner
// validates both). Within a bucket IDs stay ascending, so shard event
// scheduling matches a single global engine's order.
//
// Each session's plan head is replayed exactly once here; the arrival
// time rides along in the SessionRef instead of being re-derived at
// scheduling time.
//
// The second result is each bucket's planned chunk total (the sum of the
// sessions' watch lengths) — an upper bound on the records the bucket
// will emit (abandonment can only shorten sessions), which lets sinks
// pre-size their buffers.
func (p *Population) PartitionBySlot(cfg cdn.FleetConfig) ([][]SessionRef, []int) {
	cfg = cfg.WithDefaults()
	parts := make([][]SessionRef, cfg.NumPoPs*cfg.ServersPerPoP)
	chunks := make([]int, len(parts))
	for id := uint64(1); id <= uint64(p.Scenario.NumSessions); id++ {
		_, pre, video, watch, arrival, _ := p.planHead(id)
		pop := p.servingPoP(pre.PoP, arrival)
		slot := cdn.SlotFor(cfg, video.ID, video.Rank, id)
		b := pop*cfg.ServersPerPoP + slot
		parts[b] = append(parts[b], SessionRef{ID: id, ArrivalMS: arrival + p.Scenario.ArrivalOffsetMS})
		chunks[b] += watch
	}
	return parts, chunks
}

// samplePlatform draws the OS/browser/hardware mix of §3.
func samplePlatform(r *stats.Rand, gpuFrac float64) clientstack.Platform {
	var pl clientstack.Platform
	switch r.Choice([]float64{88.5, 9.4, 2.1}) {
	case 0:
		pl.OS = clientstack.Windows
		pl.Browser = pick(r, []clientstack.Browser{
			clientstack.Chrome, clientstack.Firefox, clientstack.InternetExplorer,
			clientstack.Edge, clientstack.Safari, clientstack.Opera,
			clientstack.Vivaldi, clientstack.Yandex, clientstack.SeaMonkey,
			clientstack.OtherBrowser,
		}, []float64{44, 39, 14.3, 1.2, 0.25, 0.45, 0.2, 0.25, 0.1, 0.25})
	case 1:
		pl.OS = clientstack.MacOS
		pl.Browser = pick(r, []clientstack.Browser{
			clientstack.Safari, clientstack.Chrome, clientstack.Firefox,
			clientstack.Opera, clientstack.OtherBrowser,
		}, []float64{55, 29, 13, 1.5, 1.5})
	default:
		pl.OS = clientstack.Linux
		pl.Browser = pick(r, []clientstack.Browser{
			clientstack.Firefox, clientstack.Chrome, clientstack.Safari,
			clientstack.OtherBrowser,
		}, []float64{55, 40, 1, 4})
	}
	pl.FlashInternal = pl.Browser == clientstack.Chrome ||
		(pl.Browser == clientstack.Safari && pl.OS == clientstack.MacOS)
	pl.GPU = r.Bool(gpuFrac)
	switch r.Choice([]float64{5, 30, 45, 20}) {
	case 0:
		pl.CPUCores = 1
	case 1:
		pl.CPUCores = 2
	case 2:
		pl.CPUCores = 4
	default:
		pl.CPUCores = 8
	}
	if r.Bool(0.2) {
		pl.CPULoad = r.Uniform(0.5, 0.95)
	} else {
		pl.CPULoad = r.Uniform(0.05, 0.45)
	}
	return pl
}

func pick(r *stats.Rand, bs []clientstack.Browser, w []float64) clientstack.Browser {
	return bs[r.Choice(w)]
}

// ConnTypeLabel names the access technology for the session record.
func ConnTypeLabel(pr *Prefix) string {
	switch pr.Profile.Org {
	case netpath.Enterprise:
		return "enterprise"
	case netpath.SmallBusiness:
		return "business"
	}
	switch {
	case pr.Profile.AccessKbps >= 50000:
		return "fiber"
	case pr.Profile.AccessKbps >= 10000:
		return "cable"
	default:
		return "dsl"
	}
}
