package core

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"
)

// roundTrip passes d through WriteJSONL and ReadJSONL.
func roundTrip(t *testing.T, d *Dataset) *Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, d); err != nil {
		t.Fatal(err)
	}
	read, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return read
}

// groupByAppearance is the reference grouping: each session's chunks,
// copied, in order of appearance in d.Chunks.
func groupByAppearance(d *Dataset) [][]ChunkRecord {
	out := make([][]ChunkRecord, len(d.Sessions))
	for i := range d.Sessions {
		for _, c := range d.Chunks {
			if c.SessionID == d.Sessions[i].SessionID {
				out[i] = append(out[i], c)
			}
		}
	}
	return out
}

func TestSessionChunksAliasCanonicalDataset(t *testing.T) {
	d := &Dataset{}
	for id := uint64(1); id <= 6; id++ {
		d.Sessions = append(d.Sessions, SessionRecord{SessionID: id * 10})
		for c := 0; c < int(id%4); c++ { // session 40 has no chunks
			d.Chunks = append(d.Chunks, ChunkRecord{SessionID: id * 10, ChunkID: c, DFBms: float64(id) + float64(c)/10})
		}
	}
	d.Chunks = append(d.Chunks, ChunkRecord{SessionID: 99}) // no session record
	d = roundTrip(t, d)
	spans := d.SessionChunks()
	if want := groupByAppearance(d); !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	next := 0
	for i, span := range spans {
		if len(span) == 0 {
			if span != nil {
				t.Errorf("session %d: empty span is not nil", d.Sessions[i].SessionID)
			}
			continue
		}
		if unsafe.SliceData(span) != &d.Chunks[next] || cap(span) != len(span) {
			t.Errorf("session %d: span is a copy or reaches past its chunks, not d.Chunks[%d:%d]",
				d.Sessions[i].SessionID, next, next+len(span))
		}
		next += len(span)
	}
}

func TestSessionChunksGroupsInterleavedSessions(t *testing.T) {
	d := &Dataset{Sessions: []SessionRecord{{SessionID: 7}, {SessionID: 3}, {SessionID: 5}}}
	for _, c := range []struct {
		id    uint64
		chunk int
	}{{3, 0}, {7, 0}, {3, 1}, {3, 2}, {5, 0}, {7, 1}, {5, 1}, {3, 3}} {
		d.Chunks = append(d.Chunks, ChunkRecord{SessionID: c.id, ChunkID: c.chunk, DLBms: float64(c.chunk)})
	}
	d = roundTrip(t, d)
	before := append([]ChunkRecord(nil), d.Chunks...)
	spans := d.SessionChunks()
	if want := groupByAppearance(d); !reflect.DeepEqual(spans, want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	if !reflect.DeepEqual(d.Chunks, before) {
		t.Fatal("grouping interleaved sessions modified d.Chunks")
	}
	for i, span := range spans {
		for j, c := range span {
			if c.ChunkID != j {
				t.Fatalf("session %d: chunk %d has ChunkID %d, want appearance order", d.Sessions[i].SessionID, j, c.ChunkID)
			}
		}
	}
}
