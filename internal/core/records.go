// Package core is the paper's contribution as a reusable library: the
// end-to-end, per-chunk instrumentation schema (player delivery, player
// rendering, CDN application layer, CDN TCP layer — Tables 2 and 3), the
// session join keyed by (sessionID, chunkID), the §3 proxy-detection
// evidence (SessionRecord.IPMismatch; internal/proxydetect applies the
// rules), and the §4 diagnosis methods (Eq. 1 latency
// decomposition, Eq. 2 performance score, Eq. 4 download-stack outlier
// detection, Eq. 5 persistent download-stack bound).
package core

import (
	"fmt"
)

// ChunkRecord is the joined per-chunk view of one HTTP chunk fetch,
// combining the player-side and CDN-side measurements that share a
// (SessionID, ChunkID) key. Fields mirror the paper's Table 2.
type ChunkRecord struct {
	SessionID uint64
	ChunkID   int // 0-based position within the session

	// Player, delivery path.
	DFBms       float64 // first-byte delay as the player sees it
	DLBms       float64 // last-byte delay (first byte -> last byte)
	BitrateKbps int
	SizeBytes   int64
	DurationSec float64 // seconds of video in the chunk (τ)

	// Player, rendering path.
	BufCount       int     // rebuffering events charged to this chunk
	BufDurMS       float64 // rebuffering time charged to this chunk
	Visible        bool    // player visibility during playout
	AvgFPS         float64
	DroppedFrames  int
	TotalFrames    int
	HardwareRender bool

	// CDN, application layer.
	DwaitMS    float64
	DopenMS    float64
	DreadMS    float64
	DBEms      float64
	CacheHit   bool   // served without a backend fetch
	CacheLevel string // "ram", "disk", "miss"
	RetryTimer bool   // the ATS open-read retry timer fired

	// CDN, TCP layer (kernel snapshot at chunk completion plus the
	// chunk's own segment counts).
	CWND      int
	SRTTms    float64
	SRTTVarMS float64
	MSS       int
	RetxTotal int // cumulative connection retransmissions at chunk end
	SegsSent  int // segments sent for this chunk
	SegsLost  int // segments retransmitted for this chunk

	// ProxyCohort is the session's 1-based shared-egress cohort
	// (internal/proxypop); 0 for direct sessions.
	ProxyCohort int

	// Model ground truth, present only in simulated traces. Analyses must
	// not read these; tests use them to validate the detection methods.
	TruthDDSms     float64
	TruthTransient bool
}

// LossRate returns the chunk's retransmission rate.
func (c ChunkRecord) LossRate() float64 {
	if c.SegsSent == 0 {
		return 0
	}
	return float64(c.SegsLost) / float64(c.SegsSent)
}

// DCDNms returns the CDN service latency Dwait + Dopen + Dread.
func (c ChunkRecord) DCDNms() float64 { return c.DwaitMS + c.DopenMS + c.DreadMS }

// ServerLatencyMS returns the total server-side latency D_CDN + D_BE.
func (c ChunkRecord) ServerLatencyMS() float64 { return c.DCDNms() + c.DBEms }

// RTT0UpperBoundMS is the Eq. 1 rearrangement the paper uses as an upper
// bound on the chunk's initial network round trip:
// D_FB − (D_CDN + D_BE) = rtt0 + D_DS >= rtt0.
func (c ChunkRecord) RTT0UpperBoundMS() float64 {
	v := c.DFBms - c.DCDNms() - c.DBEms
	if v < 0 {
		return 0
	}
	return v
}

// BaselineRTTSampleMS is the per-chunk baseline latency sample used in
// §4.2: min(SRTT, rtt0-upper-bound), filtering out self-loading inflation.
func (c ChunkRecord) BaselineRTTSampleMS() float64 {
	rtt0 := c.RTT0UpperBoundMS()
	if c.SRTTms > 0 && c.SRTTms < rtt0 {
		return c.SRTTms
	}
	return rtt0
}

// DownloadRateSecPerSec is the paper's §4.4 chunk download rate
// τ / (D_FB + D_LB), in seconds of video per wall-clock second.
func (c ChunkRecord) DownloadRateSecPerSec() float64 {
	wall := (c.DFBms + c.DLBms) / 1000
	if wall <= 0 {
		return 0
	}
	return c.DurationSec / wall
}

// PerfScore is Eq. 2: τ / (D_FB + D_LB). Scores below 1 mark chunks that
// drain the playback buffer.
func (c ChunkRecord) PerfScore() float64 { return c.DownloadRateSecPerSec() }

// InstantThroughputKbps is the player's naive per-chunk throughput
// estimate: chunk bits / D_LB — the quantity download-stack buffering
// inflates.
func (c ChunkRecord) InstantThroughputKbps() float64 {
	if c.DLBms <= 0 {
		return 0
	}
	return float64(c.SizeBytes) * 8 / c.DLBms
}

// ConnThroughputKbps is the server-side Eq. 3 estimate MSS·CWND/SRTT.
func (c ChunkRecord) ConnThroughputKbps() float64 {
	if c.SRTTms <= 0 {
		return 0
	}
	return float64(c.MSS*c.CWND) * 8 / c.SRTTms
}

// DroppedFrac returns the chunk's dropped-frame fraction.
func (c ChunkRecord) DroppedFrac() float64 {
	if c.TotalFrames == 0 {
		return 0
	}
	return float64(c.DroppedFrames) / float64(c.TotalFrames)
}

// SessionRecord is the per-session metadata and QoE summary (Table 3).
type SessionRecord struct {
	SessionID uint64

	// Client identity as the CDN and the beacon pipeline each see it.
	HTTPClientIP   string // source IP of the HTTP requests at the CDN
	BeaconIP       string // IP reported by the player beacon
	UserAgent      string
	OS             string
	Browser        string
	PopularBrowser bool

	// Content.
	VideoID     int
	VideoRank   int
	VideoLenSec float64
	NumChunks   int // chunks actually fetched

	// Topology.
	PrefixID   int
	Prefix     string // "/24" label
	Country    string
	US         bool
	PoP        int
	ServerID   int
	OrgName    string  // ISP or enterprise label
	OrgType    string  // "residential" | "enterprise" | "small-business"
	ConnType   string  // access technology label
	DistanceKM float64 // client to serving PoP

	// ArrivalMS is the session's virtual arrival time within the
	// campaign's arrival window. Windowed telemetry (internal/telemetry)
	// charges the session to the timeline window containing it.
	ArrivalMS float64

	// QoE.
	StartupMS      float64
	RebufCount     int
	RebufDurMS     float64
	RebufferRate   float64 // fraction of session time stalled
	AvgBitrateKbps float64
	PlayedSec      float64

	// TCP summary over the session's per-chunk kernel snapshots.
	SRTTMinMS  float64
	SRTTMeanMS float64
	SRTTStdMS  float64
	SRTTCV     float64
	RetxRate   float64 // lost/sent over the whole session
	HadLoss    bool

	// Client environment (from the beacon).
	GPU      bool
	CPUCores int
	CPULoad  float64

	// Live-mode summary (internal/live); zero for VoD sessions.
	// LiveEdgeLagMS is the total time the session spent waiting on the
	// publish clock — stalls caused by the medium, not the delivery path.
	Live          bool
	LiveChannel   int // channel joined at arrival
	LiveJoinChunk int // absolute channel chunk playback started at
	LiveSwitches  int // mid-stream channel switches
	LiveEdgeLagMS float64

	// Shared-egress summary (internal/proxypop); zero for direct
	// sessions. Proxied and ProxyCohort are model ground truth —
	// detection code (internal/proxydetect, §3 preprocessing) must not
	// read them; they exist so tests can score the detectors.
	Proxied     bool
	ProxyCohort int // 1-based cohort ID
}

// IPMismatch is the §3 rule-(i) evidence: the CDN saw the session's HTTP
// requests come from a different address than the player beacon
// reported. A session with no HTTP client IP has no CDN-side address to
// compare, so it is never a mismatch.
func (s *SessionRecord) IPMismatch() bool {
	return s.HTTPClientIP != "" && s.HTTPClientIP != s.BeaconIP
}

// RecordSink consumes finished sessions as a runner produces them. It is
// the seam between simulation and aggregation: a Dataset sink materializes
// every record for the exact batch analyses, while a streaming sink (e.g.
// internal/telemetry's Accumulator) folds each session into bounded-memory
// aggregates and discards it.
//
// ConsumeSession receives the session record and its chunks in ChunkID
// order. The chunks slice is valid only for the duration of the call: the
// caller recycles the backing array for later sessions, so sinks must not
// mutate it and must copy (not alias) anything they keep — Dataset's
// append of the chunk values does exactly that. Implementations need not
// be safe for concurrent use — the sharded runner gives every shard its
// own sink.
type RecordSink interface {
	ConsumeSession(s SessionRecord, chunks []ChunkRecord)
}

// Dataset is a joined trace: one SessionRecord per session and its
// ChunkRecords in (SessionID, ChunkID) order.
type Dataset struct {
	Sessions []SessionRecord
	Chunks   []ChunkRecord

	byID map[uint64]int // session index
}

// RecordReserver is optionally implemented by sinks that can pre-size
// their storage. The sharded runner calls it right after building a
// shard's sink with the shard's session count and planned chunk total
// (an upper bound — abandonment shortens sessions), which spares a
// materializing sink the incremental append growth.
type RecordReserver interface {
	ReserveRecords(sessions, chunks int)
}

// ConsumeSession implements RecordSink by appending the records; the
// caller restores the canonical order with SortCanonical afterwards.
func (d *Dataset) ConsumeSession(s SessionRecord, chunks []ChunkRecord) {
	d.Sessions = append(d.Sessions, s)
	d.Chunks = append(d.Chunks, chunks...)
}

// ReserveRecords implements RecordReserver: it grows the session and
// chunk buffers once, to their final (or slightly over-estimated) size.
func (d *Dataset) ReserveRecords(sessions, chunks int) {
	if need := len(d.Sessions) + sessions; cap(d.Sessions) < need {
		s := make([]SessionRecord, len(d.Sessions), need)
		copy(s, d.Sessions)
		d.Sessions = s
	}
	if need := len(d.Chunks) + chunks; cap(d.Chunks) < need {
		c := make([]ChunkRecord, len(d.Chunks), need)
		copy(c, d.Chunks)
		d.Chunks = c
	}
}

// Index builds the session lookup table; call after mutating Sessions.
func (d *Dataset) Index() {
	d.byID = make(map[uint64]int, len(d.Sessions))
	for i := range d.Sessions {
		d.byID[d.Sessions[i].SessionID] = i
	}
}

// Session returns the session record for id, or nil.
func (d *Dataset) Session(id uint64) *SessionRecord {
	if d.byID == nil {
		d.Index()
	}
	if i, ok := d.byID[id]; ok {
		return &d.Sessions[i]
	}
	return nil
}

// SessionChunks returns each session's chunks in dataset order: out[i]
// holds the chunks of d.Sessions[i], nil when it has none. A session
// whose chunks are contiguous in d.Chunks, as in the canonical order
// every writer emits, gets a subslice of d.Chunks, so nothing is copied;
// the caller must not append to it or modify it. A session whose chunks
// are interleaved with another's gets a copy that groups them in order
// of appearance. Chunks whose session has no record are left out.
func (d *Dataset) SessionChunks() [][]ChunkRecord {
	if d.byID == nil {
		d.Index()
	}
	out := make([][]ChunkRecord, len(d.Sessions))
	for lo := 0; lo < len(d.Chunks); {
		id := d.Chunks[lo].SessionID
		hi := lo + 1
		for hi < len(d.Chunks) && d.Chunks[hi].SessionID == id {
			hi++
		}
		switch i, ok := d.byID[id]; {
		case !ok: // no session record
		case out[i] == nil:
			out[i] = d.Chunks[lo:hi:hi]
		default:
			// The span's capacity ends at its length, so this
			// reallocates rather than overwrite d.Chunks.
			out[i] = append(out[i], d.Chunks[lo:hi]...)
		}
		lo = hi
	}
	return out
}

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset{%d sessions, %d chunks}", len(d.Sessions), len(d.Chunks))
}
