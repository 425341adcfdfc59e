package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vidperf/internal/catalog"
	"vidperf/internal/workload"
)

func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func internalEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(cfg, discardLog())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

func TestFormatValueSpecials(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{1.5, "1.5"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := formatValue(c.v); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestNanToZero(t *testing.T) {
	if got := nanToZero(math.NaN()); got != 0 {
		t.Fatalf("nanToZero(NaN) = %g", got)
	}
	if got := nanToZero(2.5); got != 2.5 {
		t.Fatalf("nanToZero(2.5) = %g", got)
	}
}

func TestCheckpointNowWithoutPath(t *testing.T) {
	eng := internalEngine(t, Config{Scenario: workload.Scenario{NumPrefixes: 10}})
	if err := eng.checkpointNow(); err == nil {
		t.Fatal("checkpointNow with no path configured did not error")
	}
}

func TestCheckpointNowUnwritableDir(t *testing.T) {
	cfg := Config{
		Scenario:       workload.Scenario{NumPrefixes: 10},
		CheckpointPath: filepath.Join(t.TempDir(), "no-such-dir", "svc.ckpt"),
	}
	eng := internalEngine(t, cfg)
	if err := eng.checkpointNow(); err == nil {
		t.Fatal("checkpointNow into a missing directory did not error")
	}
}

// TestDrainCheckpointRequests queues a synchronous checkpoint request and
// lets the boundary drain answer it: the checkpoint lands on disk and the
// reply reports the covered state.
func TestDrainCheckpointRequests(t *testing.T) {
	cfg := Config{
		Scenario:       workload.Scenario{NumPrefixes: 10},
		CheckpointPath: filepath.Join(t.TempDir(), "svc.ckpt"),
	}
	eng := internalEngine(t, cfg)
	reply := make(chan ckptReply, 1)
	eng.ckptReq <- reply
	eng.drainCheckpointRequests()
	rep := <-reply
	if rep.err != nil {
		t.Fatalf("checkpoint request failed: %v", rep.err)
	}
	if rep.Path != cfg.CheckpointPath {
		t.Fatalf("reply path = %q, want %q", rep.Path, cfg.CheckpointPath)
	}
	if _, err := LoadCheckpoint(cfg.CheckpointPath); err != nil {
		t.Fatalf("written checkpoint does not load: %v", err)
	}
	// An empty queue drains as a no-op.
	eng.drainCheckpointRequests()
}

// TestFailCheckpointWaiters pins the engine-death path: queued waiters
// get an error instead of hanging forever.
func TestFailCheckpointWaiters(t *testing.T) {
	eng := internalEngine(t, Config{Scenario: workload.Scenario{NumPrefixes: 10}})
	reply := make(chan ckptReply, 1)
	eng.ckptReq <- reply
	eng.failCheckpointWaiters(errors.New("window exploded"))
	rep := <-reply
	if rep.err == nil {
		t.Fatal("waiter got a nil error from a dead engine")
	}
	if !strings.Contains(rep.err.Error(), "engine stopped") {
		t.Fatalf("waiter error = %v, want an engine-stopped wrapper", rep.err)
	}
	eng.failCheckpointWaiters(errors.New("again")) // empty queue: no-op
}

// TestEncodeCheckpointMatchesMarshal: the hand-written envelope around
// WriteSnapshot bodies is byte-equal to json.Marshal of the same
// checkpoint, the reference kept here, before any window, after one,
// with a full ring that has evicted, with strings json escapes, and for
// the committed checkpoint file read back. A checkpoint json.Marshal
// refuses (a NaN virtual clock) is refused too.
func TestEncodeCheckpointMatchesMarshal(t *testing.T) {
	check := func(name string, ck *Checkpoint) []byte {
		t.Helper()
		want, err := json.Marshal(ck)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		got, err := encodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("%s: encodeCheckpoint: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: encodeCheckpoint differs from json.Marshal at byte %d of %d/%d:\n got %.80q\nwant %.80q",
				name, i, len(got), len(want), got[i:], want[i:])
		}
		return got
	}
	cfg := Config{
		Scenario: workload.Scenario{
			Seed: 5, NumPrefixes: 60, Catalog: catalog.Config{NumVideos: 300}, Parallelism: 1,
		},
		SessionsPerWindow: 40,
		WindowMS:          60000,
		SketchK:           32,
		Ring:              2,
	}
	check("0 windows", internalEngine(t, cfg).checkpointLocked())
	for _, windows := range []int{1, cfg.Ring + 1} {
		c := cfg
		c.MaxWindows = windows
		eng := internalEngine(t, c)
		if err := eng.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		ck := eng.checkpointLocked()
		if want := min(windows, cfg.Ring); len(ck.Ring) != want || ck.Cumulative == nil {
			t.Fatalf("%d windows: ring holds %d, want %d; cumulative %v", windows, len(ck.Ring), want, ck.Cumulative)
		}
		check(fmt.Sprintf("%d windows", windows), ck)
		if windows > 1 {
			ck.Cumulative.Labels = map[string]string{"note": "<a & b>\u2028\"q\""}
			ck.Ring[0].Window.Name = "w<0>&"
			ck.Config.Scenario.ABRName = "é\t<>"
			check("escaped strings", ck)
			ck.Ring[1].Snapshot = nil
			check("null ring snapshot", ck)
			ck.VirtualMS = math.NaN()
			if _, err := encodeCheckpoint(ck); err == nil {
				t.Fatal("encodeCheckpoint accepted a NaN virtual clock")
			}
		}
	}

	real, err := os.ReadFile(filepath.Join("testdata", "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(bytes.NewReader(real))
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if got := check("testdata/checkpoint.json", ck); !bytes.Equal(append(got, '\n'), real) {
		t.Fatal("testdata/checkpoint.json does not re-encode to its own bytes")
	}
}
