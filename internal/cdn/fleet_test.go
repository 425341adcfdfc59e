package cdn

import (
	"testing"

	"vidperf/internal/backend"
	"vidperf/internal/sim"
)

// TestPoPFleetMatchesFullFleet: a slot fleet's one server draws the RNG
// streams it would get if its whole PoP were built in slot order from the
// PoP's stream, whichever slot is built, so it serves identically.
func TestPoPFleetMatchesFullFleet(t *testing.T) {
	cfg := FleetConfig{NumPoPs: 4, ServersPerPoP: 3}
	for pop := 0; pop < 4; pop++ {
		// Reference: the whole PoP built in slot order from one stream.
		r := popRand(77, pop)
		ref := make([]*Server, 3)
		for slot := range ref {
			be := backend.New(r.Split())
			ref[slot] = NewServer(pop*3+slot, pop, cfg.Server, be, r.Split())
		}
		for slot := 0; slot < 3; slot++ {
			srv := NewSlotFleet(cfg, 77, pop, slot).PoPServers(pop)[slot]
			if srv.PoPID != pop {
				t.Fatalf("pop %d slot %d: server PoP %d", pop, slot, srv.PoPID)
			}
			refEng, slotEng := &sim.Engine{}, &sim.Engine{}
			for i := 0; i < 50; i++ {
				req := Request{Key: uint64(i * 31), SizeBytes: 700000, VideoID: i, ChunkIndex: 0}
				var refRes, slotRes ServeResult
				ref[slot].Serve(refEng, req, clientFunc(func(r ServeResult) { refRes = r }))
				srv.Serve(slotEng, req, clientFunc(func(r ServeResult) { slotRes = r }))
				refEng.Run()
				slotEng.Run()
				if refRes != slotRes {
					t.Fatalf("pop %d slot %d req %d: slot fleet %+v vs slot-order build %+v", pop, slot, i, slotRes, refRes)
				}
			}
		}
	}
}

// TestPoPFleetClamping: a slot fleet clamps nothing. PoPServers holds only
// the built server, returns nil for every other PoP, and NewSlotFleet
// panics on an out-of-range PoP or slot.
func TestPoPFleetClamping(t *testing.T) {
	cfg := FleetConfig{NumPoPs: 4, ServersPerPoP: 3}
	for pop := 0; pop < 4; pop++ {
		for slot := 0; slot < 3; slot++ {
			f := NewSlotFleet(cfg, 77, pop, slot)
			for s, srv := range f.PoPServers(pop) {
				if (srv != nil) != (s == slot) {
					t.Fatalf("pop %d slot %d fleet: server at slot %d is %v", pop, slot, s, srv)
				}
			}
			if f.PoPServers((pop+1)%4) != nil || f.PoPServers(-1) != nil || f.PoPServers(99) != nil {
				t.Fatalf("pop %d slot %d fleet returned servers for another PoP", pop, slot)
			}
		}
	}
	for _, c := range []struct{ pop, slot int }{{-1, 0}, {4, 0}, {0, -1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSlotFleet(pop %d, slot %d) did not panic", c.pop, c.slot)
				}
			}()
			NewSlotFleet(cfg, 1, c.pop, c.slot)
		}()
	}
}

// TestFleetServersOrderedByID: server IDs follow the canonical (PoP, slot)
// shard order, so merging shards in that order is merging by server ID.
func TestFleetServersOrderedByID(t *testing.T) {
	cfg := FleetConfig{NumPoPs: 3, ServersPerPoP: 4}
	want := 0
	for pop := 0; pop < 3; pop++ {
		for slot := 0; slot < 4; slot++ {
			if id := NewSlotFleet(cfg, 5, pop, slot).PoPServers(pop)[slot].ID; id != want {
				t.Fatalf("pop %d slot %d has ID %d, want %d", pop, slot, id, want)
			}
			want++
		}
	}
}
