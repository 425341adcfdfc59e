// Package cdn models the Apache-Traffic-Server-like caching proxy fleet
// the paper instruments: a FIFO request queue drained by a worker pool, a
// multi-level RAM+disk cache, the 10 ms asynchronous open-read-retry timer
// (the root cause of Fig. 5's bimodal Dread), backend fetches on misses,
// and the cache-focused client-to-server mapping that produces the
// load-performance paradox of §4.1.
//
// Every request is served with a per-chunk latency breakdown —
// Dwait, Dopen, Dread, D_BE — matching the paper's Table 2 CDN
// instrumentation.
package cdn

import (
	"math"

	"vidperf/internal/backend"
	"vidperf/internal/cache"
	"vidperf/internal/sim"
	"vidperf/internal/stats"
)

// Config parameterizes one CDN server. Zero fields take defaults
// calibrated to the paper's Fig. 5 (median hit 2 ms, miss ~80 ms,
// ~35% of chunks hitting the 10 ms retry timer).
type Config struct {
	RAMBytes int64  // main-memory cache size (default 2 GiB)
	Policy   string // cache policy at both levels (default "lru")

	OpenRetryMS float64 // ATS open-read retry timer (default 10 ms)

	// Prefetch is the number of subsequent chunks fetched from the backend
	// after a miss (§4.1 take-away; default 0 = off).
	Prefetch int
	// PinFirstChunks serves chunk 0 of every video from memory
	// unconditionally (§4.3 take-away: cache the first chunk of every
	// video to cut startup delay).
	PinFirstChunks bool
}

// A server's local service times (lognormal medians and the disk rate),
// calibrated to the paper's Fig. 5: with the dispatch overhead they put
// the median hit's server latency near 2 ms, and a disk hit's seek and
// read come on top of the 10 ms retry timer, the upper mode of Dread.
const (
	ramReadMedianMS  = 0.6 // in-memory first-byte read
	diskSeekMedianMS = 4   // disk seek+open
	diskReadMBps     = 400 // disk sequential rate
	openMedianMS     = 0.5 // header parse + cache-open attempt
)

// DiskBytes is every server's disk cache size, the second level of the
// Fig. 5 hit/miss split: a RAM miss the disk holds pays the 10 ms retry
// timer, the upper mode of Dread, instead of a backend fetch (§4.1). It
// is exported for the timeline's cache shrink (session), which scales
// it with the RAM size.
const DiskBytes = 64 << 30

// workers is the ATS threadpool size: enough that the FIFO queue wait
// Dwait stays sub-millisecond at the paper's load (§4.1, Fig. 5).
const workers = 16

// The lognormal location of each median, computed once rather than per
// request.
var (
	logRAMReadMedian  = math.Log(ramReadMedianMS)
	logDiskSeekMedian = math.Log(diskSeekMedianMS)
	logOpenMedian     = math.Log(openMedianMS)
)

func (c Config) withDefaults() Config {
	if c.RAMBytes == 0 {
		c.RAMBytes = 2 << 30
	}
	if c.Policy == "" {
		c.Policy = "lru"
	}
	if c.OpenRetryMS == 0 {
		c.OpenRetryMS = 10
	}
	return c
}

// Request identifies one chunk fetch arriving at a server.
type Request struct {
	Key        uint64
	SizeBytes  int64
	VideoID    int
	ChunkIndex int
	// Next lists the session's subsequent chunks (key+size), used only
	// when prefetching is enabled.
	Next []NextChunk
	// BackendFactor scales the backend latency D_BE of a miss on this
	// request (timeline brownout phases; 0 means unscaled). The latency
	// sample itself is drawn as usual, so a factor of 1 is byte-identical
	// to no factor at all.
	BackendFactor float64
}

// backendFactor resolves the request's effective D_BE multiplier.
func (r Request) backendFactor() float64 {
	if r.BackendFactor <= 0 {
		return 1
	}
	return r.BackendFactor
}

// NextChunk is a prefetch candidate.
type NextChunk struct {
	Key       uint64
	SizeBytes int64
}

// ServeResult is the per-chunk CDN-side latency breakdown (Table 2).
type ServeResult struct {
	DwaitMS float64 // FIFO queue wait before a worker picked the request
	DopenMS float64 // header read until first cache-open attempt
	DreadMS float64 // first-byte read incl. retry timer and disk/socket work
	DBEms   float64 // backend latency (0 on hits)

	Level      cache.Level // where the chunk was found
	RetryTimer bool        // the 10 ms open-retry fired
	Pinned     bool        // served from the pinned first-chunk store
}

// DCDNms is the CDN service latency D_CDN = Dwait + Dopen + Dread.
func (sr ServeResult) DCDNms() float64 { return sr.DwaitMS + sr.DopenMS + sr.DreadMS }

// ServerLatencyMS is the total server-side contribution to first-byte
// delay: D_CDN + D_BE.
func (sr ServeResult) ServerLatencyMS() float64 { return sr.DCDNms() + sr.DBEms }

// CacheHit reports whether the chunk was served without a backend fetch.
func (sr ServeResult) CacheHit() bool { return sr.Level != cache.LevelMiss }

// Server is one caching proxy.
type Server struct {
	ID    int
	PoPID int

	cfg     Config
	cache   *cache.MultiLevel
	backend *backend.Service
	r       *stats.Rand

	// busy counts occupied workers. queue[head:] is the FIFO of requests
	// waiting for one; dequeued slots are cleared so a finished request is
	// not kept reachable from the backing array.
	busy  int
	queue []*inflight
	head  int

	// Free lists of the per-request event handlers, so steady-state
	// serving allocates none.
	requests freeList[inflight]
	fills    freeList[cacheFill]
}

// Client receives a served request's latency breakdown at the moment the
// chunk's first byte is written to the socket.
type Client interface {
	Served(res ServeResult)
}

// inflight is one request from arrival until its first byte is
// delivered. It is the handler of the delivery event, after which it
// returns to its server's free list.
type inflight struct {
	srv       *Server
	eng       *sim.Engine
	req       Request
	arrivedMS float64
	client    Client
	res       ServeResult
}

// Fire delivers the result. The request is recycled before the client
// runs, so a client that immediately issues its next request may get the
// same handler back.
func (f *inflight) Fire(float64) {
	s, c, res := f.srv, f.client, f.res
	*f = inflight{}
	s.requests.put(f)
	c.Served(res)
}

// workerRelease is the server seen as the handler of its workers'
// release events: one long-lived handler serves every request.
type workerRelease Server

// Fire frees the worker and hands it the oldest queued request, if any.
func (w *workerRelease) Fire(float64) {
	s := (*Server)(w)
	s.busy--
	if s.head == len(s.queue) {
		return
	}
	next := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	s.start(next)
}

// cacheFill is a backend fill landing in the cache one backend latency
// after a miss or a prefetch. It returns to its server's free list after
// firing.
type cacheFill struct {
	srv  *Server
	key  uint64
	size int64
}

// Fire inserts the fetched chunk.
func (c *cacheFill) Fire(float64) {
	s := c.srv
	s.cache.Insert(c.key, c.size)
	*c = cacheFill{}
	s.fills.put(c)
}

// freeList recycles one kind of event handler.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	n := len(*l)
	if n == 0 {
		return new(T)
	}
	x := (*l)[n-1]
	*l = (*l)[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) { *l = append(*l, x) }

// NewServer builds a server with its own cache and backend sampler.
func NewServer(id, popID int, cfg Config, be *backend.Service, r *stats.Rand) *Server {
	cfg = cfg.withDefaults()
	ram, ok := cache.NewPolicy(cfg.Policy, cfg.RAMBytes)
	if !ok {
		panic("cdn: unknown cache policy " + cfg.Policy)
	}
	disk, _ := cache.NewPolicy(cfg.Policy, DiskBytes)
	return &Server{
		ID:      id,
		PoPID:   popID,
		cfg:     cfg,
		cache:   cache.NewMultiLevel(ram, disk),
		backend: be,
		r:       r,
	}
}

// Cache exposes the server's cache for inspection and warmup.
func (s *Server) Cache() *cache.MultiLevel { return s.cache }

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// Serve schedules the handling of req on the simulation engine and hands
// c the latency breakdown at the moment the chunk's first byte is written
// to the socket.
func (s *Server) Serve(eng *sim.Engine, req Request, c Client) {
	f := s.requests.get()
	*f = inflight{srv: s, eng: eng, req: req, arrivedMS: eng.Now(), client: c}
	if s.busy < workers {
		s.start(f)
		return
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		// Slide the waiting requests down instead of growing the array.
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, f)
}

// start runs a request on a free worker at the current engine time.
func (s *Server) start(f *inflight) {
	eng := f.eng
	s.busy++
	// Queue wait: time in FIFO plus a small accept/dispatch overhead
	// (the paper observes Dwait < 1 ms for most chunks). The dispatch
	// overhead occupies the worker, so it is scheduled below.
	dispatch := s.r.Uniform(0.02, 0.4)
	res := &f.res
	*res = ServeResult{
		DwaitMS: (eng.Now() - f.arrivedMS) + dispatch,
		DopenMS: s.r.LogNormal(logOpenMedian, 0.4),
	}

	if s.cfg.PinFirstChunks && f.req.ChunkIndex == 0 {
		res.Level = cache.LevelRAM
		res.Pinned = true
		res.DreadMS = s.ramReadMS()
		s.finish(f, dispatch)
		return
	}

	res.Level = s.cache.Lookup(f.req.Key, f.req.SizeBytes)
	switch res.Level {
	case cache.LevelRAM:
		res.DreadMS = s.ramReadMS()
	case cache.LevelDisk:
		// Not in memory: the first open attempt fails and the async
		// retry timer fires before the disk read completes.
		res.RetryTimer = true
		res.DreadMS = s.cfg.OpenRetryMS + s.diskReadMS(f.req.SizeBytes)
	case cache.LevelMiss:
		res.RetryTimer = true
		res.DBEms = s.backend.FetchLatencyMS() * f.req.backendFactor()
		// Local work: retry timer + writing the backend's first bytes
		// through to the socket (backend fetch and delivery are
		// pipelined; the wait itself is accounted in D_BE).
		res.DreadMS = s.cfg.OpenRetryMS + s.r.Uniform(0.2, 1.0)
		s.fill(eng, res.DBEms, f.req.Key, f.req.SizeBytes)
		s.prefetch(eng, f.req)
	}
	s.finish(f, dispatch)
}

// finish accounts for worker occupancy and schedules the worker's release
// and the first-byte delivery.
func (s *Server) finish(f *inflight, dispatch float64) {
	res := f.res
	localWork := dispatch + res.DopenMS + res.DreadMS
	firstByteDelay := localWork + res.DBEms

	// The worker is event-driven: it is released after the local work;
	// waiting on the backend does not occupy a thread.
	f.eng.After(localWork, (*workerRelease)(s))
	f.eng.After(firstByteDelay, f)
}

// fill schedules a backend fill of one chunk into the cache.
func (s *Server) fill(eng *sim.Engine, delay float64, key uint64, size int64) {
	c := s.fills.get()
	*c = cacheFill{srv: s, key: key, size: size}
	eng.After(delay, c)
}

// prefetch warms the cache with the session's subsequent chunks after a
// miss. Prefetched fills arrive one backend latency later.
func (s *Server) prefetch(eng *sim.Engine, req Request) {
	n := s.cfg.Prefetch
	for i := 0; i < n && i < len(req.Next); i++ {
		nc := req.Next[i]
		if s.cache.Contains(nc.Key) {
			continue
		}
		s.fill(eng, s.backend.FetchLatencyMS()*req.backendFactor(), nc.Key, nc.SizeBytes)
	}
}

func (s *Server) ramReadMS() float64 {
	return s.r.LogNormal(logRAMReadMedian, 0.5)
}

func (s *Server) diskReadMS(size int64) float64 {
	seek := s.r.LogNormal(logDiskSeekMedian, 0.6)
	transfer := float64(size) / (diskReadMBps * 1000) // MB/s -> bytes/ms
	return seek + transfer
}
