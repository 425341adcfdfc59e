package core

import (
	"cmp"
	"slices"
	"sync"
)

// SortCanonical puts the dataset into its canonical order: sessions
// ascending by SessionID, chunks ascending by (SessionID, ChunkID). Every
// writer emits this order, so two datasets with equal contents serialize
// to identical bytes regardless of how their records were produced —
// the property the sharded runner's determinism guarantee rests on.
//
// Keys are unique, so any correct sort gives the same order; the
// generic sort swaps the large records without reflection.
func (d *Dataset) SortCanonical() {
	slices.SortFunc(d.Sessions, func(a, b SessionRecord) int {
		return cmp.Compare(a.SessionID, b.SessionID)
	})
	slices.SortFunc(d.Chunks, func(a, b ChunkRecord) int {
		return cmp.Or(cmp.Compare(a.SessionID, b.SessionID), cmp.Compare(a.ChunkID, b.ChunkID))
	})
}

// Merge combines shard datasets into one canonically ordered, indexed
// dataset. nil parts are skipped; the inputs are not modified.
func Merge(parts ...*Dataset) *Dataset {
	var ns, nc int
	for _, p := range parts {
		if p == nil {
			continue
		}
		ns += len(p.Sessions)
		nc += len(p.Chunks)
	}
	m := &Dataset{
		Sessions: make([]SessionRecord, 0, ns),
		Chunks:   make([]ChunkRecord, 0, nc),
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		m.Sessions = append(m.Sessions, p.Sessions...)
		m.Chunks = append(m.Chunks, p.Chunks...)
	}
	m.SortCanonical()
	m.Index()
	return m
}

// Collector assembles per-shard datasets from concurrent producers. Each
// shard fills its own private Dataset (no locking on the hot path) and
// hands it over once; Merge then builds the canonical combined dataset,
// so the completion order of the shards never leaks into the result.
type Collector struct {
	mu    sync.Mutex
	parts []*Dataset
}

// Add contributes one shard's finished dataset. Safe for concurrent use.
func (c *Collector) Add(d *Dataset) {
	if d == nil {
		return
	}
	c.mu.Lock()
	c.parts = append(c.parts, d)
	c.mu.Unlock()
}

// Merge returns the canonical union of everything added so far.
func (c *Collector) Merge() *Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Merge(c.parts...)
}
