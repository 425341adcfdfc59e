package session

import (
	"bytes"
	"sync"
	"testing"

	"vidperf/internal/core"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// singlePoPScenario forces every session onto one PoP, so any
// parallelism beyond 1 can only come from sub-PoP (per-server-slot)
// shards — the granularity this PR introduced.
func singlePoPScenario(seed uint64, par int) workload.Scenario {
	sc := smallScenario(seed)
	sc.Fleet.NumPoPs = 1
	sc.Parallelism = par
	return sc
}

// TestSubPoPShardingByteIdentical pins the determinism guarantee at
// server granularity: with a single PoP the shards are individual server
// slots, and both the JSONL trace and the telemetry snapshot must still
// serialize to exactly the sequential run's bytes at any parallelism.
func TestSubPoPShardingByteIdentical(t *testing.T) {
	trace := func(par int) []byte {
		ds := mustRun(t, singlePoPScenario(37, par))
		var buf bytes.Buffer
		if err := core.WriteJSONL(&buf, ds); err != nil {
			t.Fatalf("WriteJSONL(par=%d): %v", par, err)
		}
		return buf.Bytes()
	}
	seqTrace := trace(1)
	for _, par := range []int{2, 8} {
		if got := trace(par); !bytes.Equal(seqTrace, got) {
			t.Fatalf("Parallelism=%d single-PoP trace differs from sequential (%d vs %d bytes)",
				par, len(got), len(seqTrace))
		}
	}

	snap := func(par int) []byte {
		res, err := Execute(singlePoPScenario(37, par), Options{Telemetry: true, SketchK: 64})
		if err != nil {
			t.Fatalf("Execute(par=%d): %v", par, err)
		}
		sn := res.Snapshot
		var buf bytes.Buffer
		if err := telemetry.WriteSnapshot(&buf, sn); err != nil {
			t.Fatalf("WriteSnapshot(par=%d): %v", par, err)
		}
		return buf.Bytes()
	}
	seqSnap := snap(1)
	for _, par := range []int{2, 8} {
		if got := snap(par); !bytes.Equal(seqSnap, got) {
			t.Fatalf("Parallelism=%d single-PoP snapshot differs from sequential (%d vs %d bytes)",
				par, len(got), len(seqSnap))
		}
	}
}

// aliasProbeSink deliberately violates the RecordSink contract by
// retaining the chunks slices it is handed, alongside honest deep
// copies. It also checks, at delivery time, the invariant a buffer-pool
// bug would break first: every record in the slice belongs to the
// session being delivered, in contiguous chunk order. Safe for
// concurrent shards.
type aliasProbeSink struct {
	t    *testing.T
	mu   sync.Mutex
	kept map[uint64][]core.ChunkRecord // deep copies, per the contract
	raw  map[uint64][]core.ChunkRecord // aliased retention, against the contract
}

func (s *aliasProbeSink) ConsumeSession(rec core.SessionRecord, chunks []core.ChunkRecord) {
	for i := range chunks {
		if chunks[i].SessionID != rec.SessionID {
			s.t.Errorf("session %d delivered a chunk of session %d at position %d (recycled buffer aliased into a live session)",
				rec.SessionID, chunks[i].SessionID, i)
		}
		if chunks[i].ChunkID != i {
			s.t.Errorf("session %d chunk order broken at %d (got ChunkID %d)",
				rec.SessionID, i, chunks[i].ChunkID)
		}
	}
	cp := make([]core.ChunkRecord, len(chunks))
	copy(cp, chunks)
	s.mu.Lock()
	s.kept[rec.SessionID] = cp
	s.raw[rec.SessionID] = chunks
	s.mu.Unlock()
}

// TestRecycledChunkBuffersSafe pins the runner's buffer pooling: chunk
// slices handed to the sink are complete and correct at call time (the
// deep copies match a collect-mode reference run exactly), recycling
// really happens (the illegally retained slices get overwritten by
// later sessions — the contract's "valid only for the duration of the
// call" is load-bearing, not theoretical), and no recycled buffer is
// ever handed to a still-live session (the delivery-time invariant
// above).
func TestRecycledChunkBuffersSafe(t *testing.T) {
	sc := smallScenario(41)
	ref := mustRun(t, sc)

	sink := &aliasProbeSink{
		t:    t,
		kept: map[uint64][]core.ChunkRecord{},
		raw:  map[uint64][]core.ChunkRecord{},
	}
	if _, err := Execute(sc, Options{Sinks: func(int) core.RecordSink { return sink }}); err != nil {
		t.Fatalf("Execute(Sinks): %v", err)
	}

	for i, want := range ref.SessionChunks() {
		id := ref.Sessions[i].SessionID
		got := sink.kept[id]
		if len(got) != len(want) {
			t.Fatalf("session %d: %d chunks via pooled sink, %d in reference", id, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("session %d chunk %d differs between pooled sink and reference", id, j)
			}
		}
	}

	// Recycling must actually have occurred: with ~300 sessions spread
	// over the fleet's server-slot shards, most shards consume several
	// sessions, so most illegally retained slices must by now show some
	// other session's data.
	recycled := 0
	for id, raw := range sink.raw {
		kept := sink.kept[id]
		same := len(raw) >= len(kept)
		if same {
			for j := range kept {
				if raw[j] != kept[j] {
					same = false
					break
				}
			}
		}
		if !same {
			recycled++
		}
	}
	if recycled == 0 {
		t.Fatal("no retained chunk slice was ever recycled; the buffer pool appears inactive")
	}
}
