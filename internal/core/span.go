package core

import "sync"

// SpanCollector assembles shard record streams into one dataset whose
// backing arrays are allocated exactly once. Rather than have every
// shard fill a private Dataset and then copy the union — two full
// passes of allocation for a campaign-sized trace — it uses the shards'
// ReserveRecords hints to carve one pair of backing arrays into
// disjoint per-shard spans up front: shards append into their spans
// concurrently without locks, and Dataset() compacts the spans in
// place, sorts canonically, and indexes. The result is byte-identical
// to sorting the union of per-shard datasets — canonical order erases
// span layout — for roughly half the allocation.
//
// Usage: call NewSink once per shard from the runner's sequential plan
// phase (NewSink is not safe for concurrent use), let the runner reserve
// each sink, run the shards, then call Dataset exactly once.
type SpanCollector struct {
	once  sync.Once
	sinks []*spanSink
	ds    Dataset
}

// NewSink registers and returns the sink for one shard. The runner's
// ReserveRecords call on it declares the span size: session counts are
// exact, chunk counts an upper bound.
func (c *SpanCollector) NewSink() RecordSink {
	s := &spanSink{col: c}
	c.sinks = append(c.sinks, s)
	return s
}

// materialize sums the reserved span sizes, performs the one allocation,
// and hands each sink its sub-slice. It runs under once on the first
// ConsumeSession, which happens-after every NewSink/ReserveRecords (the
// plan phase completes before any shard runs).
func (c *SpanCollector) materialize() {
	var ts, tc int
	for _, s := range c.sinks {
		ts += s.resSessions
		tc += s.resChunks
	}
	sessions := make([]SessionRecord, ts)
	chunks := make([]ChunkRecord, tc)
	var so, co int
	for _, s := range c.sinks {
		s.sessions = sessions[so : so : so+s.resSessions]
		s.chunks = chunks[co : co : co+s.resChunks]
		so += s.resSessions
		co += s.resChunks
	}
	c.ds.Sessions = sessions[:0]
	c.ds.Chunks = chunks[:0]
}

// Dataset compacts the spans, restores canonical order, indexes, and
// returns the combined dataset. Call once, after every shard finishes.
func (c *SpanCollector) Dataset() *Dataset {
	c.once.Do(c.materialize) // zero-session runs still need the arrays
	var ns, nc int
	for _, s := range c.sinks {
		ns += len(s.sessions)
		nc += len(s.chunks)
	}
	sessions, chunks := c.ds.Sessions[:0], c.ds.Chunks[:0]
	if ns > cap(sessions) || nc > cap(chunks) {
		// A sink outgrew its reservation (its appends spilled to a fresh
		// array). The spans still hold every record, so fall back to a
		// plain copy into correctly sized arrays.
		sessions = make([]SessionRecord, 0, ns)
		chunks = make([]ChunkRecord, 0, nc)
	}
	for _, s := range c.sinks {
		// In the in-place case each span's records move left or stay put
		// (earlier spans only shrink), so the overlapping copies are safe.
		sessions = append(sessions, s.sessions...)
		chunks = append(chunks, s.chunks...)
	}
	c.ds.Sessions = sessions
	c.ds.Chunks = chunks
	c.ds.SortCanonical()
	c.ds.Index()
	return &c.ds
}

// spanSink is one shard's window into the shared backing arrays. The
// three-index sub-slices cap appends at the reservation, so a shard that
// exceeds its declared span spills into a private array instead of
// overwriting its neighbour.
type spanSink struct {
	col                    *SpanCollector
	resSessions, resChunks int
	sessions               []SessionRecord
	chunks                 []ChunkRecord
}

// ReserveRecords implements RecordReserver by recording the span sizes.
func (s *spanSink) ReserveRecords(sessions, chunks int) {
	s.resSessions, s.resChunks = sessions, chunks
}

// ConsumeSession implements RecordSink by appending into the shard's
// span (copying the chunk values, per the RecordSink aliasing contract).
func (s *spanSink) ConsumeSession(rec SessionRecord, chunks []ChunkRecord) {
	s.col.once.Do(s.col.materialize)
	s.sessions = append(s.sessions, rec)
	s.chunks = append(s.chunks, chunks...)
}
