package session

import (
	"runtime"
	"testing"

	"vidperf/internal/telemetry"
)

// telemetryMallocs runs a diagnosed telemetry-mode campaign of the given
// size over smallScenario's world and returns the heap objects the run
// allocated and the chunks it simulated.
func telemetryMallocs(t *testing.T, sessions int) (mallocs, chunks uint64) {
	t.Helper()
	sc := smallScenario(7)
	sc.NumSessions = sessions
	sc.Parallelism = 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Execute(sc, Options{Telemetry: true, Diagnose: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return after.Mallocs - before.Mallocs, res.Snapshot.Counter(telemetry.CounterChunks)
}

// TestTelemetryExecuteMallocsPerChunk bounds the heap objects a
// telemetry-mode run allocates per simulated chunk. Differencing two
// campaign sizes over the same world cancels the fixed costs (world
// build, fleet warm-up, accumulators, snapshot), leaving the per-session
// and per-chunk path. Chunk events, CDN requests, cache fills and the
// telemetry fold allocate nothing there; what remains is per-session
// (TestTelemetryExecuteMallocsPerSession), about 0.22 objects per chunk.
// One closure or key string per chunk would cross the ceiling.
func TestTelemetryExecuteMallocsPerChunk(t *testing.T) {
	const ceiling = 0.3
	m1, c1 := telemetryMallocs(t, 400)
	m2, c2 := telemetryMallocs(t, 2000)
	if c2 <= c1 {
		t.Fatalf("larger campaign simulated %d chunks, smaller %d", c2, c1)
	}
	perChunk := (float64(m2) - float64(m1)) / float64(c2-c1)
	t.Logf("%.2f heap objects per chunk (%d chunks: %d objects; %d chunks: %d objects)", perChunk, c1, m1, c2, m2)
	if perChunk > ceiling {
		t.Fatalf("telemetry-mode run allocates %.2f heap objects per chunk, ceiling %.2f", perChunk, ceiling)
	}
}

// TestTelemetryExecuteMallocsPerSession bounds the heap objects each
// additional session of a telemetry-mode run costs, measured as the
// difference between a 4000- and a 2000-session campaign over the same
// world, divided by 2000. A session's generators, connection, congestion
// process, player and estimator are values inside its sessionState, its
// plan head's generator stays on the stack, its user-agent label comes
// from a table, and the state and its record buffer come from the
// worker's free list, so what remains is the beacon IP string (one per
// session) and whatever the worker's pools and the shards' sinks grow
// by: about 1.37 objects.
func TestTelemetryExecuteMallocsPerSession(t *testing.T) {
	const ceiling = 1.5
	m1, _ := telemetryMallocs(t, 2000)
	m2, _ := telemetryMallocs(t, 4000)
	perSession := (float64(m2) - float64(m1)) / 2000
	t.Logf("%.2f heap objects per session (2000 sessions: %d objects; 4000: %d)", perSession, m1, m2)
	if perSession > ceiling {
		t.Fatalf("telemetry-mode run allocates %.2f heap objects per session, ceiling %.1f", perSession, ceiling)
	}
}
