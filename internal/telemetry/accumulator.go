package telemetry

import (
	"math"
	"slices"
	"sync"

	"vidperf/internal/core"
	"vidperf/internal/diagnose"
	"vidperf/internal/timeline"
)

// Metric names of the quantile sketches an Accumulator maintains — one
// per distribution the §4–§5 analyses consume.
const (
	MetricStartupMS    = "startup_ms"     // per-session startup delay (started sessions only)
	MetricRebufferRate = "rebuffer_rate"  // per-session fraction of time stalled
	MetricDFBMS        = "dfb_ms"         // per-chunk first-byte delay
	MetricDLBMS        = "dlb_ms"         // per-chunk last-byte delay
	MetricSRTTMS       = "srtt_ms"        // per-chunk kernel SRTT snapshot
	MetricServerMS     = "server_ms"      // per-chunk D_CDN + D_BE
	MetricServerHitMS  = "server_hit_ms"  // server latency, cache hits
	MetricServerMissMS = "server_miss_ms" // server latency, cache misses
	MetricDwaitMS      = "dwait_ms"       // Fig. 5 breakdown components
	MetricDopenMS      = "dopen_ms"
	MetricDreadMS      = "dread_ms"
)

// Slots of the core sketches, in metricNames order.
const (
	slotStartup = iota
	slotRebuffer
	slotDFB
	slotDLB
	slotSRTT
	slotServer
	slotServerHit
	slotServerMiss
	slotDwait
	slotDopen
	slotDread
	numCoreSketches
)

// metricNames names the core sketch slots, in slot order.
var metricNames = [numCoreSketches]string{
	MetricStartupMS, MetricRebufferRate, MetricDFBMS, MetricDLBMS,
	MetricSRTTMS, MetricServerMS, MetricServerHitMS, MetricServerMissMS,
	MetricDwaitMS, MetricDopenMS, MetricDreadMS,
}

// Counter names (see DimKey for the dimensioned-key convention; the
// dimensions in use are pop, cache, bitrate, and org).
const (
	CounterSessions           = "sessions" // also the base of _pop= / _org= / _window= keys
	CounterSessionsNeverStart = "sessions_never_started"
	CounterChunks             = "chunks" // also the base of _pop= / _cache= / _bitrate= keys
	CounterChunksHit          = "chunks_hit"
	CounterChunksRetryTimer   = "chunks_retry_timer"
)

// qoeSketches is the per-session QoE trio the diagnosis and window
// dimensions keep for each label or window: three consecutive sketches
// of the accumulator's slab, named after qoeBases in order.
type qoeSketches []QuantileSketch

// qoeBases are the base metrics of a QoE trio, in slab order.
var qoeBases = [...]string{MetricStartupMS, MetricRebufferRate, MetricAvgBitrateKbps}

// qoeAt is the i-th trio of sk, a family's slab slice of trios.
func qoeAt(sk []QuantileSketch, i int) qoeSketches {
	return qoeSketches(sk[len(qoeBases)*i : len(qoeBases)*(i+1)])
}

// appendQoENames appends one trio's names, each base named by key.
func appendQoENames(names []string, key func(base string) string) []string {
	for _, base := range qoeBases {
		names = append(names, key(base))
	}
	return names
}

func (q qoeSketches) add(s *core.SessionRecord) {
	if !math.IsNaN(s.StartupMS) {
		q[0].Add(s.StartupMS)
	}
	q[1].Add(s.RebufferRate)
	q[2].Add(s.AvgBitrateKbps)
}

// Accumulator folds finished sessions into the campaign's bounded-memory
// aggregates. It implements core.RecordSink; the sharded runner gives
// each PoP shard its own Accumulator, so no locking is needed on the
// record path.
//
// The record path touches only dense state: core sketches sit in fixed
// slots, optional-family sketches are reached by label ordinal or window
// index, and counters are keyed by (family, value) — see counterKey.
// Counter names are built only when a snapshot is taken; sketch names
// are built once per shape (once per Campaign) and shared by every
// accumulator of it.
type Accumulator struct {
	core   [numCoreSketches]QuantileSketch
	counts map[counterKey]uint64

	// extra is one slab holding every optional-family sketch in the
	// shape's order, which is the same for every accumulator of one
	// Config; merges pair them by position and snapshots name them from
	// the shape.
	extra []QuantileSketch
	shape *shape

	// fams are the optional families the Config enables, in
	// NewAccumulatorWith's order.
	fams []family
}

// family is one optional aggregate family: diagnosis (diag.go), timeline
// windows (windows.go), live (live.go) or proxy (proxy.go). Its
// constructor takes every sketch it keeps from the accumulator's slab,
// so its whole shape exists before the first session and empty shards
// still merge and snapshot deterministically.
type family interface {
	// consume folds one finished session. The record comes by value: a
	// pointer through this interface call would move every folded record
	// to the heap.
	consume(s core.SessionRecord, chunks []core.ChunkRecord)
	// counterName names one of the family's own dimensioned counters.
	counterName(k counterKey) string
	// annotate adds the family's own fields to a snapshot.
	annotate(sn *Snapshot)
}

// Config assembles an accumulator's optional families next to its sketch
// parameter. The zero value is a plain accumulator with the default
// sketch parameter.
type Config struct {
	// SketchK is the quantile-sketch compaction parameter (<= 0 selects
	// DefaultSketchK).
	SketchK int
	// Diagnose, when non-nil, classifies every consumed session with
	// internal/diagnose (see diag.go).
	Diagnose *diagnose.Config
	// Windows, when non-empty, charges every consumed session to the
	// timeline window containing its arrival (see windows.go).
	Windows []timeline.Window
	// Live, when true, folds live-mode QoE (join time, live-edge lag,
	// per-channel counters) into the aggregates (see live.go).
	Live bool
	// Proxy, when true, folds proxied-population QoE (proxied-vs-direct
	// splits, per-egress counters) into the aggregates (see proxy.go).
	Proxy bool
}

// shape is what every accumulator of one Config shares: the Config,
// with its own copy of the windows, the canonical names of the
// optional-family sketches in slab order, and the number of counter
// keys the Config bounds. A Campaign builds it once, so its shard
// accumulators build no name.
type shape struct {
	cfg         Config
	names       []string
	counterKeys int
}

// baseCounterKeys is how many counters a one-PoP accumulator of any
// Config keeps at most on the default ladder: the five undimensioned
// ones, the PoP's sessions, chunks and hits, three org types, three
// cache levels and eight bitrates.
const baseCounterKeys = 5 + 3 + 3 + 3 + 8

// newShape lays out cfg's optional families in the order diagnosis,
// windows, live, proxy, the order newAccumulator builds them in.
func newShape(cfg Config) *shape {
	// Snapshots share the window list; a clipped copy makes any append
	// to one (MergeSnapshots) reallocate.
	cfg.Windows = slices.Clip(slices.Clone(cfg.Windows))
	sh := &shape{cfg: cfg, counterKeys: baseCounterKeys}
	labels := 0
	if cfg.Diagnose != nil {
		sh.names = appendDiagNames(sh.names)
		labels = len(diagLabels)
		sh.counterKeys += labels
	}
	if len(cfg.Windows) > 0 {
		sh.names = appendWindowNames(sh.names, cfg.Windows)
		sh.counterKeys += 1 + len(cfg.Windows)*(1+labels)
	}
	// Live channels and proxy cohorts have no bound in the Config; only
	// their undimensioned counters are counted.
	if cfg.Live {
		sh.names = append(sh.names, liveMetricNames[:]...)
		sh.counterKeys++
	}
	if cfg.Proxy {
		sh.names = append(sh.names, proxyMetricNames[:]...)
		sh.counterKeys += 2
	}
	return sh
}

// NewAccumulatorWith returns an empty accumulator with the configured
// optional families. Dimension counters key on each record's own
// PoP/org/cache fields, so one accumulator serves one shard or a whole
// merged campaign alike.
func NewAccumulatorWith(cfg Config) *Accumulator { return newShape(cfg).newAccumulator() }

// newAccumulator returns an empty accumulator of this shape. Each family
// takes its sketches from the front of what is left of the slab, so
// they line up with the shape's names. The families consume in the
// order built here, so windows read the label diagnosis has just
// assigned.
func (sh *shape) newAccumulator() *Accumulator {
	cfg := sh.cfg
	a := &Accumulator{
		counts: make(map[counterKey]uint64, sh.counterKeys),
		extra:  make([]QuantileSketch, len(sh.names)),
		shape:  sh,
		fams:   make([]family, 0, 4),
	}
	for i := range a.core {
		a.core[i] = *NewSketch(cfg.SketchK)
	}
	for i := range a.extra {
		a.extra[i] = *NewSketch(cfg.SketchK)
	}
	rest := a.extra
	take := func(n int) []QuantileSketch {
		sk := rest[:n:n]
		rest = rest[n:]
		return sk
	}
	var diag *diagFamily
	if cfg.Diagnose != nil {
		diag = newDiagFamily(a, *cfg.Diagnose, take(len(qoeBases)*len(diagLabels)))
		a.fams = append(a.fams, diag)
	}
	if len(cfg.Windows) > 0 {
		a.fams = append(a.fams, newWindowFamily(a, cfg.Windows, diag, take(len(qoeBases)*len(cfg.Windows))))
	}
	if cfg.Live {
		a.fams = append(a.fams, newLiveFamily(a, take(len(liveMetricNames))))
	}
	if cfg.Proxy {
		a.fams = append(a.fams, newProxyFamily(a, take(len(proxyMetricNames))))
	}
	return a
}

// nextFamily returns the tag the family being built counts its own
// dimensioned counters under: famFamily plus its position in fams, as
// newAccumulator appends each family right after constructing it.
func (a *Accumulator) nextFamily() counterFamily { return famFamily + counterFamily(len(a.fams)) }

// ReserveRecords implements core.RecordReserver. The sharded runner
// calls it before a shard's first record with the shard's session count
// and an upper bound on its chunks. The per-chunk core sketches take at
// most one sample per chunk, and the others (startup, rebuffer and every
// optional-family sketch) at most one per session, so each sketch's
// first level 0 is sized for min(that count, k) samples. Every sketch's
// level 0 is carved out of one slab and its level-header slice out of
// another, so a shard's sketches cost two allocations, not two each. A
// sketch fed past its reservation grows as append does; no sketch state
// the snapshot shows depends on the hint.
func (a *Accumulator) ReserveRecords(sessions, chunks int) {
	k := a.core[0].k
	perChunk, perSession := min(max(chunks, 0), k), min(max(sessions, 0), k)
	n := numCoreSketches + len(a.extra)
	// sketch returns the i-th sketch, core slots first, and the
	// samples its level 0 is sized for.
	sketch := func(i int) (*QuantileSketch, int) {
		switch {
		case i >= numCoreSketches:
			return &a.extra[i-numCoreSketches], perSession
		case i == slotStartup || i == slotRebuffer:
			return &a.core[i], perSession
		}
		return &a.core[i], perChunk
	}
	total := 0
	for i := range n {
		_, size := sketch(i)
		total += size
	}
	if total == 0 {
		return
	}
	l0s := make([]float64, total)
	hdrs := make([][]float64, firstLevels*n)
	for i := range n {
		s, size := sketch(i)
		if size > 0 {
			s.reserve(l0s[:0:size], hdrs[:0:firstLevels])
		}
		l0s, hdrs = l0s[size:], hdrs[firstLevels:]
	}
}

// ConsumeSession implements core.RecordSink: it folds one finished
// session and its chunks into the aggregates and retains nothing.
func (a *Accumulator) ConsumeSession(s core.SessionRecord, chunks []core.ChunkRecord) {
	a.counts[plainKey(CounterSessions)]++
	a.counts[counterKey{fam: famSessionsPoP, num: s.PoP}]++
	a.counts[counterKey{fam: famSessionsOrg, str: s.OrgType}]++
	// StartupMS is NaN for sessions that never started playback; those go
	// to a dedicated counter instead of the startup distribution.
	if math.IsNaN(s.StartupMS) {
		a.counts[plainKey(CounterSessionsNeverStart)]++
	} else {
		a.core[slotStartup].Add(s.StartupMS)
	}
	a.core[slotRebuffer].Add(s.RebufferRate)
	for _, f := range a.fams {
		f.consume(s, chunks)
	}

	// The session's chunks share its PoP, so the undimensioned and per-PoP
	// chunk counters are summed here and added once; a counter still
	// appears only once something has counted into it.
	var hits, retries uint64
	for i := range chunks {
		c := &chunks[i]
		a.counts[counterKey{fam: famChunksCache, str: c.CacheLevel}]++
		a.counts[counterKey{fam: famChunksBitrate, num: c.BitrateKbps}]++
		server := c.ServerLatencyMS()
		if c.CacheHit {
			hits++
			a.core[slotServerHit].Add(server)
		} else {
			a.core[slotServerMiss].Add(server)
		}
		if c.RetryTimer {
			retries++
		}
		a.core[slotDFB].Add(c.DFBms)
		a.core[slotDLB].Add(c.DLBms)
		a.core[slotSRTT].Add(c.SRTTms)
		a.core[slotServer].Add(server)
		a.core[slotDwait].Add(c.DwaitMS)
		a.core[slotDopen].Add(c.DopenMS)
		a.core[slotDread].Add(c.DreadMS)
	}
	if n := uint64(len(chunks)); n > 0 {
		a.counts[plainKey(CounterChunks)] += n
		a.counts[counterKey{fam: famChunksPoP, num: s.PoP}] += n
	}
	if hits > 0 {
		a.counts[plainKey(CounterChunksHit)] += hits
		a.counts[counterKey{fam: famChunksHitPoP, num: s.PoP}] += hits
	}
	if retries > 0 {
		a.counts[plainKey(CounterChunksRetryTimer)] += retries
	}
}

// Merge folds o into a. o must come from the same Config (every
// accumulator of one Campaign does), so the optional sketches pair up by
// position; the result depends only on operand order.
func (a *Accumulator) Merge(o *Accumulator) {
	if o == nil {
		return
	}
	for i := range a.core {
		a.core[i].Merge(&o.core[i])
	}
	for i := range a.extra {
		a.extra[i].Merge(&o.extra[i])
	}
	for k, n := range o.counts {
		a.counts[k] += n
	}
}

// snapshot packages the accumulator's state under its canonical names.
// The sketches are shared with the accumulator, not copied.
func (a *Accumulator) snapshot() *Snapshot {
	sketches := make(map[string]*QuantileSketch, len(a.core)+len(a.extra))
	for i, name := range metricNames {
		sketches[name] = &a.core[i]
	}
	for i, name := range a.shape.names {
		sketches[name] = &a.extra[i]
	}
	sn := &Snapshot{
		Schema:   SnapshotSchema,
		SketchK:  NewSketch(a.shape.cfg.SketchK).K(),
		Sketches: sketches,
		Counters: make(map[string]uint64, len(a.counts)),
	}
	for k, n := range a.counts {
		sn.Counters[a.counterName(k)] += n
	}
	for _, f := range a.fams {
		f.annotate(sn)
	}
	return sn
}

// counterName builds the canonical string key of one counter.
func (a *Accumulator) counterName(k counterKey) string {
	if k.fam >= famFamily {
		return a.fams[k.fam-famFamily].counterName(k)
	}
	switch k.fam {
	case famSessionsPoP:
		return IntDimKey(CounterSessions, "pop", k.num)
	case famSessionsOrg:
		return DimKey(CounterSessions, "org", k.str)
	case famChunksPoP:
		return IntDimKey(CounterChunks, "pop", k.num)
	case famChunksCache:
		return DimKey(CounterChunks, "cache", k.str)
	case famChunksBitrate:
		return IntDimKey(CounterChunks, "bitrate", k.num)
	case famChunksHitPoP:
		return IntDimKey(CounterChunksHit, "pop", k.num)
	}
	return k.str
}

// Campaign owns the per-shard accumulators of one streamed run. Its Sink
// method is a session.SinkFactory; every call mints a fresh accumulator,
// and Snapshot merges them in the order the runner created them — the
// runner's canonical ascending (PoP, server-slot) plan order, which is
// what keeps streamed output byte-identical at any parallelism.
type Campaign struct {
	mu    sync.Mutex
	shape *shape
	accs  []*Accumulator
}

// NewCampaignWith returns an empty campaign whose per-PoP accumulators
// run with the configured optional families. The families' sketch names
// are built here, once for every accumulator the campaign mints.
func NewCampaignWith(cfg Config) *Campaign {
	return &Campaign{shape: newShape(cfg)}
}

// Sink returns a fresh accumulator for one shard. Every call gets its own
// accumulator — shards of the same PoP must not share one, since each
// feeds its sink from its own goroutine. Snapshot later merges the
// accumulators in Sink-call order, so callers must mint sinks in their
// canonical shard order (the session runner's sequential plan phase
// does). Sink is safe for concurrent use regardless.
func (c *Campaign) Sink(popID int) core.RecordSink {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.shape.newAccumulator()
	c.accs = append(c.accs, a)
	return a
}

// Snapshot merges the shard accumulators in Sink-call order and returns
// the campaign-wide state. Call it only after the run completes.
func (c *Campaign) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	merged := c.shape.newAccumulator()
	for _, a := range c.accs {
		merged.Merge(a)
	}
	return merged.snapshot()
}
