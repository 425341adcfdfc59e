package core

import (
	"cmp"
	"slices"
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
