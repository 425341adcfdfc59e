package cdn

import (
	"testing"

	"vidperf/internal/sim"
)

// TestPoPFleetMatchesFullFleet is the sharding precondition: a PoP's
// servers must behave identically whether the PoP was built alone
// (NewPoPFleet) or as part of the whole deployment (NewFleet), because
// their RNG streams derive from (seed, popID) only.
func TestPoPFleetMatchesFullFleet(t *testing.T) {
	cfg := FleetConfig{NumPoPs: 4, ServersPerPoP: 3}
	full := NewFleet(cfg, 77)
	for pop := 0; pop < 4; pop++ {
		part := NewPoPFleet(cfg, 77, pop)
		if got := part.NumServers(); got != 3 {
			t.Fatalf("pop %d: partial fleet has %d servers", pop, got)
		}
		fullEng, partEng := &sim.Engine{}, &sim.Engine{}
		for i := 0; i < 50; i++ {
			req := Request{Key: uint64(i * 31), SizeBytes: 700000, VideoID: i, ChunkIndex: 0}
			var fullRes, partRes ServeResult
			full.ServerFor(pop, i, i, uint64(i)).Serve(fullEng, req, clientFunc(func(r ServeResult) { fullRes = r }))
			part.ServerFor(pop, i, i, uint64(i)).Serve(partEng, req, clientFunc(func(r ServeResult) { partRes = r }))
			fullEng.Run()
			partEng.Run()
			if fullRes != partRes {
				t.Fatalf("pop %d req %d: partial %+v vs full %+v", pop, i, partRes, fullRes)
			}
		}
	}
}

func TestPoPFleetClamping(t *testing.T) {
	cfg := FleetConfig{NumPoPs: 3, ServersPerPoP: 2}
	part := NewPoPFleet(cfg, 1, 2)
	if got := part.BuiltPoPs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("built PoPs = %v, want [2]", got)
	}
	// Requests for unbuilt or out-of-range PoPs fall back to the built one.
	for _, pop := range []int{-1, 0, 1, 2, 99} {
		srv := part.ServerFor(pop, 5, 5, 1)
		if srv == nil || srv.PoPID != 2 {
			t.Fatalf("pop %d mapped to %+v, want the built PoP 2", pop, srv)
		}
	}
	if part.PoPServers(0) != nil {
		t.Error("unbuilt PoP returned servers")
	}
	// An out-of-range popID to NewPoPFleet clamps to 0.
	if got := NewPoPFleet(cfg, 1, 99).BuiltPoPs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("clamped built PoPs = %v, want [0]", got)
	}
}

func TestFleetServersOrderedByID(t *testing.T) {
	f := NewFleet(FleetConfig{NumPoPs: 3, ServersPerPoP: 4}, 5)
	srvs := f.Servers()
	if len(srvs) != 12 {
		t.Fatalf("got %d servers", len(srvs))
	}
	for i, srv := range srvs {
		if srv.ID != i {
			t.Fatalf("server at position %d has ID %d", i, srv.ID)
		}
	}
}
