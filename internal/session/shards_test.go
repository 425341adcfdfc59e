package session

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vidperf/internal/cdn"
	"vidperf/internal/core"
	"vidperf/internal/proxypop"
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

// recycleScenarios are the session paths a recycled state must carry
// cleanly: plain VoD, prefetching servers, live channel switching, and
// proxied cohorts under a full-effects timeline.
func recycleScenarios() map[string]workload.Scenario {
	prefetch := smallScenario(43)
	prefetch.Fleet.Server.Prefetch = 2
	proxied := timelineScenario(44)
	proxied.Proxy = proxypop.Config{Share: 0.3, Cohorts: 2}
	return map[string]workload.Scenario{
		"vod":      smallScenario(42),
		"prefetch": prefetch,
		"live":     stormLiveScenario(45, 1),
		"proxied":  proxied,
	}
}

// traceBytes runs sc in dataset mode and returns its JSONL trace.
func traceBytes(t *testing.T, sc workload.Scenario) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteJSONL(&buf, mustRun(t, sc)); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestRecycledStateStartsClean: after shards run on a scratch, every
// state on its free list equals a fresh one field for field, apart from
// the capacity of its reused buffers, and so does the state the free
// list hands out next.
func TestRecycledStateStartsClean(t *testing.T) {
	for name, sc := range recycleScenarios() {
		sc.Parallelism = 1
		pop := workload.Build(sc)
		var col core.SpanCollector
		shards, err := planShards(pop, func(int) core.RecordSink { return col.NewSink() })
		if err != nil {
			t.Fatalf("%s: planShards: %v", name, err)
		}
		var scratch shardScratch
		for _, sh := range shards[:min(3, len(shards))] {
			sh.run(&scratch)
		}
		if len(scratch.states) == 0 {
			t.Fatalf("%s: no session state was returned to the free list", name)
		}
		reused := 0
		for i, st := range append(slices.Clone(scratch.states), scratch.getState()) {
			if cap(st.records) > 0 {
				reused++
			}
			if len(st.records) != 0 || len(st.nextBuf) != 0 {
				t.Errorf("%s: free state %d holds %d records and %d prefetch entries", name, i, len(st.records), len(st.nextBuf))
			}
			got := *st
			got.records, got.nextBuf = nil, nil
			v := reflect.ValueOf(got)
			for f := 0; f < v.NumField(); f++ {
				if !v.Field(f).IsZero() {
					t.Errorf("%s: free state %d keeps field %s of its last session", name, i, v.Type().Field(f).Name)
				}
			}
		}
		if reused == 0 {
			t.Errorf("%s: no free state keeps a record buffer to reuse", name)
		}
	}
}

// TestExecuteShardsReturnsScratch: once executeShards returns, no shard
// still holds its worker's scratch or its server, at any parallelism.
func TestExecuteShardsReturnsScratch(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		pop := workload.Build(smallScenario(46))
		var col core.SpanCollector
		shards, err := planShards(pop, func(int) core.RecordSink { return col.NewSink() })
		if err != nil {
			t.Fatalf("planShards: %v", err)
		}
		executeShards(par, shards, nil)
		for _, sh := range shards {
			if sh.scratch != nil || sh.server != nil {
				t.Fatalf("parallelism %d: shard %d still holds scratch %v, server %v after executeShards",
					par, sh.shard.ID, sh.scratch != nil, sh.server != nil)
			}
		}
	}
}

// TestRecycledStatesUnreferenced shows that nothing refers to a session
// state once finish has returned it to the free list. The probe takes
// every freed state back out of circulation, so it is never reused and
// stays zeroed: an event, an in-flight request or a sink that still
// held one would fire it, and a zeroed state panics on Fire and on
// Served. Every scenario must run to the same trace as with recycling.
func TestRecycledStatesUnreferenced(t *testing.T) {
	var zeroed sessionState
	for name, use := range map[string]func(){
		"Fire":   func() { zeroed.Fire(0) },
		"Served": func() { zeroed.Served(cdn.ServeResult{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a zeroed state did not panic; it cannot serve as poison", name)
				}
			}()
			use()
		}()
	}

	freed := 0
	probe := func(scratch *shardScratch, st *sessionState) {
		n := len(scratch.states) - 1
		if scratch.states[n] != st {
			t.Fatal("finish did not put the state on top of the free list")
		}
		scratch.states = scratch.states[:n]
		freed++
	}
	t.Cleanup(func() { recycleProbe = nil })
	for name, sc := range recycleScenarios() {
		sc.Parallelism = 1
		want := traceBytes(t, sc)
		freed = 0
		recycleProbe = probe
		got := traceBytes(t, sc)
		recycleProbe = nil
		if freed != sc.NumSessions {
			t.Errorf("%s: %d states freed, want one per session (%d)", name, freed, sc.NumSessions)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: trace without state reuse differs from the recycled run", name)
		}
	}
}
