package session

import (
	"math"
	"slices"

	"vidperf/internal/abr"
	"vidperf/internal/catalog"
	"vidperf/internal/cdn"
	"vidperf/internal/clientstack"
	"vidperf/internal/core"
	"vidperf/internal/netpath"
	"vidperf/internal/player"
	"vidperf/internal/sim"
	"vidperf/internal/stats"
	"vidperf/internal/tcpmodel"
	"vidperf/internal/workload"
)

// frameRate is the encoded frame rate of every rung, the frames per
// second the rendering path (§4.4, Figs. 19–22) counts drops against.
const frameRate = 30

// sessionState is one in-flight session. Its randomness derives from
// (scenario seed, session ID) only, and it touches only its own shard's
// engine, server, and sink. The state itself, with its chunk-record
// buffer, comes from the free list of the scratch its shard borrowed
// and returns there when the session finishes.
//
// The session is its own event handler and CDN client: Fire issues the
// next chunk request and Served takes the server's answer. A session has
// at most one request in flight, whose context it keeps in req.
//
// Its generators, connection, congestion process, player and estimator
// are values inside it, so setting up a session is one allocation; conn
// draws from connR, the stream split off r.
type sessionState struct {
	scratch *shardScratch
	pop     *workload.Population
	plan    workload.SessionPlan
	algo    abr.Algorithm
	eng     *sim.Engine
	sink    core.RecordSink

	r      stats.Rand
	connR  stats.Rand
	conn   tcpmodel.Conn
	cong   netpath.Congestion
	play   player.Player
	est    abr.Estimator
	server *cdn.Server

	req         chunkRequest
	nextBuf     []cdn.NextChunk // prefetch candidates of the request in flight
	chunkIdx    int
	records     []core.ChunkRecord
	sumKbpsDur  float64
	sumDur      float64
	lastOutlier bool
	prevRebufN  int
	prevRebufMS float64

	// Live-mode state: the channel currently tuned (nil for VoD), the
	// absolute channel chunk the next request targets, and the accrued
	// publish-clock wait. The serving server stays pinned to the join
	// channel (plan.Video) so a session never crosses its shard; only
	// the cache keys follow liveVideo across switches.
	liveVideo    *catalog.Video
	liveAbs      int
	liveChannel  int
	liveSwitches int
	liveLagMS    float64
}

// chunkRequest is the context of a session's request in flight: when it
// was issued and what it asked for.
type chunkRequest struct {
	t0      float64
	idx     int
	bitrate int
	dur     float64
	size    int64
}

// Fire implements sim.Handler: the session's next request is due.
func (s *sessionState) Fire(float64) { s.requestNextChunk() }

// Served implements cdn.Client: the request in flight has its first byte.
func (s *sessionState) Served(res cdn.ServeResult) { s.onServed(res) }

// liveProbe, when non-nil, observes every live chunk issue as
// (sessionID, absolute chunk, issue time, publish time). It exists for
// the publish-clock property tests, which run at Parallelism 1; the
// hook is package-level state, so it must stay nil in production runs.
var liveProbe func(sessionID uint64, absChunk int, issueMS, publishMS float64)

// recycleProbe, when non-nil, sees each session state right after
// finish returns it to scr's free list. Like liveProbe it exists for
// tests, which run at Parallelism 1, and must stay nil in production
// runs.
var recycleProbe func(scr *shardScratch, st *sessionState)

func newSessionState(sh *slotShard, plan workload.SessionPlan) *sessionState {
	pop := sh.pop
	prof := plan.Prefix.Profile
	if plan.Proxied {
		// Tromboned sessions overlay the shared-egress queueing process
		// on the prefix's congestion knobs. Org is preserved, so the
		// per-session scale draws below are position-identical to the
		// direct world.
		prof = pop.ProxyCohort(plan.ProxyCohort).Trombone.CongestionProfile(prof)
	}
	st := sh.scratch.getState()
	// Every field is assigned here, so nothing of a recycled state's
	// last session survives but its buffers' capacity. The record buffer
	// is grown to the planned watch length, so the session's appends
	// never regrow it (abandonment only shortens a session).
	*st = sessionState{
		scratch: sh.scratch,
		pop:     pop,
		plan:    plan,
		algo:    sh.algo,
		server:  sh.server,
		eng:     &sh.scratch.eng,
		sink:    sh.sink,
		r:       *stats.NewRand(pop.Scenario.Seed ^ (plan.ID * 0xdeadbeefcafef00d)),
		play:    player.New(pop.Scenario.StartThresholdSec),
		est:     abr.NewEstimator(0.3),
		records: slices.Grow(st.records[:0], plan.WatchChunks),
		nextBuf: st.nextBuf[:0],
	}
	// The connection's stream is split off before the congestion draws.
	st.connR = *st.r.Split()
	st.conn = tcpmodel.New(plan.PathParams, &st.connR)
	st.cong = prof.NewCongestion(&st.r)
	if plan.Live {
		st.liveVideo = pop.LiveVideo(plan.LiveChannel)
		st.liveChannel = plan.LiveChannel
		st.liveAbs = plan.LiveJoinChunk
	}
	return st
}

// abrContext assembles the signals the adaptation algorithm sees.
func (s *sessionState) abrContext() abr.Context {
	info := s.conn.Info()
	return abr.Context{
		Ladder:        s.pop.Catalog.Bitrates,
		ChunkIndex:    s.chunkIdx,
		BufferSec:     s.play.BufferSec(),
		LastChunkKbps: s.lastInstantKbps(),
		SmoothedKbps:  s.est.Kbps(),
		ServerKbps:    info.ThroughputKbps(),
		StackOutlier:  s.lastOutlier,
	}
}

func (s *sessionState) lastInstantKbps() float64 {
	if len(s.records) == 0 {
		return 0
	}
	return s.records[len(s.records)-1].InstantThroughputKbps()
}

// requestNextChunk issues the HTTP GET for the current chunk. In live
// mode it first gates on the publish clock: an unpublished target chunk
// means the player idles until the clock releases it, accruing
// live-edge lag. The gate runs before any RNG draw, so the retry at
// publish time consumes exactly the draws a single issue would.
func (s *sessionState) requestNextChunk() {
	if s.liveVideo != nil {
		pub := s.pop.Scenario.ArrivalOffsetMS + s.pop.Scenario.Live.PublishMS(s.liveAbs)
		if now := s.eng.Now(); now < pub {
			wait := pub - now
			s.liveLagMS += wait
			s.conn.AdvanceIdle(wait)
			s.eng.At(pub, s)
			return
		}
	}

	idx := s.chunkIdx
	bitrate := s.algo.Next(s.abrContext())
	video, chunkIdx := s.plan.Video, idx
	var dur float64
	if s.liveVideo != nil {
		// Live chunks are constant-length (a channel has no "last chunk")
		// and are addressed by absolute channel position, so every viewer
		// at the edge asks the cache for the same key.
		video, chunkIdx = s.liveVideo, s.liveAbs
		dur = s.pop.Scenario.Live.ChunkDurationSec
		if liveProbe != nil {
			liveProbe(s.plan.ID, s.liveAbs, s.eng.Now(),
				s.pop.Scenario.ArrivalOffsetMS+s.pop.Scenario.Live.PublishMS(s.liveAbs))
		}
	} else {
		dur = s.pop.Catalog.ChunkDurationSec(video, idx)
	}
	size := catalog.ChunkSizeBytes(bitrate, dur)
	key := catalog.ChunkKey(video.ID, chunkIdx, bitrate)

	// Path state for this chunk: cross-traffic episode level. A congested
	// uplink both delays and drops, so the episode raises the loss rate.
	extra := s.cong.Step(&s.r)
	s.conn.SetExtraDelayMS(extra)
	s.conn.SetRandomLossProb(s.plan.PathParams.RandomLossProb + netpath.LossBoost(extra))

	req := cdn.Request{
		Key: key, SizeBytes: size,
		VideoID: video.ID, ChunkIndex: chunkIdx,
		Next:          s.prefetchList(idx, bitrate),
		BackendFactor: s.plan.BackendFactor,
	}
	s.req = chunkRequest{t0: s.eng.Now(), idx: idx, bitrate: bitrate, dur: dur, size: size}
	s.server.Serve(s.eng, req, s)
}

// prefetchList names the session's next two chunks for servers with
// prefetching enabled. Live sessions never prefetch: the next chunk may
// not be published yet, and fetching ahead of the clock would break the
// published-only invariant. The list reuses the session's buffer: the
// server reads it before the request's first byte, and the session's next
// request comes after.
func (s *sessionState) prefetchList(idx, bitrate int) []cdn.NextChunk {
	if s.liveVideo != nil || s.server.Config().Prefetch == 0 {
		return nil
	}
	out := s.nextBuf[:0]
	for n := idx + 1; n <= idx+2 && n < s.plan.WatchChunks; n++ {
		d := s.pop.Catalog.ChunkDurationSec(s.plan.Video, n)
		out = append(out, cdn.NextChunk{
			Key:       catalog.ChunkKey(s.plan.Video.ID, n, bitrate),
			SizeBytes: catalog.ChunkSizeBytes(bitrate, d),
		})
	}
	s.nextBuf = out
	return out
}

// onServed fires when the server has the chunk's first byte ready; the
// network transfer and client-side handling follow.
func (s *sessionState) onServed(res cdn.ServeResult) {
	t0, idx, bitrate, dur, size := s.req.t0, s.req.idx, s.req.bitrate, s.req.dur, s.req.size
	tr := s.conn.Transfer(size)
	dds := s.plan.Stack.Sample(idx, &s.r)

	// Eq. 1 composition: D_FB = rtt0 + D_CDN + D_BE + D_DS.
	dfb := tr.RTT0ms + res.ServerLatencyMS() + dds.DDSms
	dlb := tr.LastByteMS + dds.DeliveryStretchMS
	if dds.Transient {
		// The stack held the early bytes and released them late: the
		// player sees a late first byte and a compressed download window.
		dlb = math.Max(5, dlb-dds.TransientDelayMS)
	}
	tLastByte := t0 + dfb + dlb

	// Player-side accounting.
	s.play.AdvanceTo(tLastByte)
	bufferedBefore := s.play.BufferSec()
	s.play.OnChunkDownloaded(tLastByte, dur)

	// Rendering path.
	visible := !s.r.Bool(s.plan.HiddenProb)
	rate := 0.0
	if dfb+dlb > 0 {
		rate = dur / ((dfb + dlb) / 1000)
	}
	render := clientstack.RenderChunk(s.plan.Platform, visible, rate, bitrate,
		frameRate, dur, bufferedBefore, &s.r)

	info := s.conn.Info()
	rec := core.ChunkRecord{
		SessionID: s.plan.ID, ChunkID: idx,
		DFBms: dfb, DLBms: dlb,
		BitrateKbps: bitrate, SizeBytes: size, DurationSec: dur,
		BufCount: s.play.RebufCount() - s.prevRebufN,
		BufDurMS: s.play.RebufDurMS() - s.prevRebufMS,
		Visible:  visible,
		AvgFPS:   render.AvgFPS, DroppedFrames: render.FramesDropped,
		TotalFrames: render.FramesTotal, HardwareRender: render.Hardware,
		DwaitMS: res.DwaitMS, DopenMS: res.DopenMS, DreadMS: res.DreadMS,
		DBEms: res.DBEms, CacheHit: res.CacheHit(),
		CacheLevel: res.Level.String(), RetryTimer: res.RetryTimer,
		CWND: info.CWNDSegments, SRTTms: info.SRTTms, SRTTVarMS: info.RTTVarMS,
		MSS: info.MSS, RetxTotal: info.RetransTotal,
		SegsSent: tr.SegmentsSent, SegsLost: tr.SegmentsLost,
		ProxyCohort: s.plan.ProxyCohort,
		TruthDDSms:  dds.DDSms, TruthTransient: dds.Transient,
	}
	s.records = append(s.records, rec)
	s.prevRebufN = s.play.RebufCount()
	s.prevRebufMS = s.play.RebufDurMS()
	s.sumKbpsDur += float64(bitrate) * dur
	s.sumDur += dur

	// Feed the ABR estimator with the player's (possibly poisoned) view.
	if dlb > 0 {
		s.est.Observe(float64(size) * 8 / dlb)
	}
	s.lastOutlier = dds.Transient

	s.chunkIdx++
	if s.chunkIdx >= s.plan.WatchChunks {
		s.finish()
		return
	}
	// Viewers abandon on bad QoE (Krishnan & Sitaraman): each stall risks
	// losing the viewer, which is why heavily re-buffering sessions are
	// not over-represented at high chunk IDs.
	if rec.BufCount > 0 && s.r.Bool(0.35) {
		s.finish()
		return
	}

	if s.liveVideo != nil {
		s.liveAbs++
		s.maybeSwitchChannel(tLastByte)
	}

	// Steady state: request the next chunk immediately unless the buffer
	// is full, in which case wait for it to drain to the high-water mark.
	nextAt := tLastByte
	if over := s.play.BufferSec() - s.pop.Scenario.MaxBufferSec; over > 0 {
		wait := over * 1000
		nextAt += wait
		s.conn.AdvanceIdle(wait)
	}
	s.eng.At(nextAt, s)
}

// maybeSwitchChannel draws the per-chunk channel-switch decision. A
// switch re-tunes the session to a different channel at the live edge
// (minus the join margin) without flushing the player buffer — a
// seamless switch, so the cost shows up at the cache (a new hot edge)
// rather than as a startup event. The publish clock is global, so the
// re-join target is always already published and never behind a chunk
// the session could have seen on the new channel later.
func (s *sessionState) maybeSwitchChannel(nowMS float64) {
	lc := s.pop.Scenario.Live
	if lc.Channels <= 1 || lc.SwitchPerMin <= 0 {
		return
	}
	if !s.r.Bool(lc.SwitchProb()) {
		return
	}
	next := s.r.Intn(lc.Channels - 1)
	if next >= s.liveChannel {
		next++
	}
	s.liveChannel = next
	s.liveVideo = s.pop.LiveVideo(next)
	s.liveSwitches++
	s.liveAbs = lc.JoinChunk(nowMS - s.pop.Scenario.ArrivalOffsetMS)
}

// finish closes the session and writes its records into the dataset.
func (s *sessionState) finish() {
	s.play.Finish()
	cs := core.ComputeSessionChunkStats(s.records)

	// The session's SRTT series is the per-chunk kernel snapshot (Table 2,
	// "CDN TCP layer"), one equally-weighted sample per chunk. The slice
	// is worker scratch: sessions finish one at a time within a shard's
	// engine, and the stats helpers retain nothing.
	srttSeries := s.scratch.srtt[:0]
	for i := range s.records {
		srttSeries = append(srttSeries, s.records[i].SRTTms)
	}
	s.scratch.srtt = srttSeries[:0]
	var srttMin, srttMean, srttStd, srttCV float64
	if len(srttSeries) > 0 {
		srttMin = stats.Min(srttSeries)
		srttMean = stats.Mean(srttSeries)
		srttStd = stats.Std(srttSeries)
		if srttMean > 0 {
			srttCV = srttStd / srttMean
		}
	}
	avgKbps := 0.0
	if s.sumDur > 0 {
		avgKbps = s.sumKbpsDur / s.sumDur
	}
	pl := s.plan
	rec := core.SessionRecord{
		SessionID:      pl.ID,
		HTTPClientIP:   pl.HTTPIP,
		BeaconIP:       pl.ClientIP,
		UserAgent:      pl.Platform.UserAgent(),
		OS:             pl.Platform.OS.String(),
		Browser:        pl.Platform.Browser.String(),
		PopularBrowser: pl.Platform.Browser.Popular(),
		VideoID:        pl.Video.ID,
		VideoRank:      pl.Video.Rank,
		VideoLenSec:    pl.Video.DurationSec,
		NumChunks:      len(s.records),
		PrefixID:       pl.Prefix.ID,
		Prefix:         pl.Prefix.Label,
		Country:        pl.Prefix.Country,
		US:             pl.Prefix.US,
		PoP:            pl.ServingPoP,
		ServerID:       s.server.ID,
		OrgName:        pl.Prefix.Profile.OrgName,
		OrgType:        pl.Prefix.Profile.Org.String(),
		ConnType:       workload.ConnTypeLabel(pl.Prefix),
		DistanceKM:     pl.Prefix.DistKM,
		ArrivalMS:      pl.ArrivalMS,
		StartupMS:      s.play.StartupMS() - pl.ArrivalMS,
		RebufCount:     s.play.RebufCount(),
		RebufDurMS:     s.play.RebufDurMS(),
		RebufferRate:   s.play.RebufferRate(),
		AvgBitrateKbps: avgKbps,
		PlayedSec:      s.play.PlayedSec(),
		SRTTMinMS:      srttMin,
		SRTTMeanMS:     srttMean,
		SRTTStdMS:      srttStd,
		SRTTCV:         srttCV,
		RetxRate:       cs.RetxRate(),
		HadLoss:        cs.AnyLoss,
		GPU:            pl.Platform.GPU,
		CPUCores:       pl.Platform.CPUCores,
		CPULoad:        pl.Platform.CPULoad,
	}
	if !s.play.Started() {
		rec.StartupMS = math.NaN()
	}
	if pl.Live {
		rec.Live = true
		rec.LiveChannel = pl.LiveChannel
		rec.LiveJoinChunk = pl.LiveJoinChunk
		rec.LiveSwitches = s.liveSwitches
		rec.LiveEdgeLagMS = s.liveLagMS
	}
	if pl.Proxied {
		rec.Proxied = true
		rec.ProxyCohort = pl.ProxyCohort
	}
	s.sink.ConsumeSession(rec, s.records)
	// Nothing refers to the state past this point, so it goes back to
	// the free list. finish runs inside Served, whose in-flight request
	// has already been recycled and cleared (cdn's inflight.Fire); a
	// session schedules itself only at the end of onServed, which
	// returns right after this call, or from requestNextChunk, which
	// never runs with a request in flight; and the sink contract says the
	// chunks are valid only for the duration of the call, so the record
	// buffer is free too. TestRecycledStatesUnreferenced poisons every
	// freed state and runs every scenario feature to check this.
	scr := s.scratch
	scr.putState(s)
	if recycleProbe != nil {
		recycleProbe(scr, s)
	}
}
