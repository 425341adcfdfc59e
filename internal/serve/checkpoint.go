// checkpoint.go is the serve checkpoint codec: a checkpoint is the
// engine's complete resumable state at a window boundary — the effective
// config (seed and virtual clock geometry included), the window counter,
// the cumulative fold, and the ring. Sketches and counters both
// round-trip JSON exactly (their wire formats encode the full
// internal state), so a resumed engine's published snapshots are
// byte-identical to the uninterrupted run's.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"

	"vidperf/internal/atomicfile"
	"vidperf/internal/telemetry"
)

// CheckpointSchema is the checkpoint wire-format version. Schema 5
// dropped the population mix and server sizes the scenario no longer
// carries (NonUSFrac, EnterprisePrefixFrac, SmallBizPrefixFrac, GPUFrac,
// the CDN's DiskBytes and Workers); schema 4 stored them. Schema 4 was
// the first to hold schema-2 telemetry snapshots: no histograms, and a
// sum in every sketch. Schema 3 dropped the calibration values the
// scenario no longer carries (the backend block, the CDN's and
// catalog's service-time and duration parameters, FPS); schema 2 stored
// them, schema 1 also spelled the live and proxy blocks with Go field
// names. Checkpoints are decoded strictly, so no older schema loads.
const CheckpointSchema = 5

// Checkpoint is the serialized engine state. Its wire form is
// json.Marshal's; the engine writes it with encodeCheckpoint, which
// spells out every field, so a field added here goes there too.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Config is the effective configuration of the checkpointed run.
	// Resume takes every determinism-relevant field (scenario, seed,
	// window geometry, sketch k, diagnosis) from here; only runtime
	// fields (pace, checkpoint path/interval, max windows) come from the
	// resuming caller.
	Config      Config              `json:"config"`
	WindowsDone int                 `json:"windows_done"`
	VirtualMS   float64             `json:"virtual_ms"`
	Cumulative  *telemetry.Snapshot `json:"cumulative,omitempty"`
	Ring        []WindowResult      `json:"ring,omitempty"`
}

// ckptReply is the engine's answer to one synchronous checkpoint
// request.
type ckptReply struct {
	Path        string  `json:"path"`
	WindowsDone int     `json:"windows_done"`
	VirtualMS   float64 `json:"virtual_ms"`
	err         error
}

// checkpoint assembles the engine's current state. Callers hold at least
// the read lock.
func (e *Engine) checkpointLocked() *Checkpoint {
	return &Checkpoint{
		Schema:      CheckpointSchema,
		Config:      e.cfg,
		WindowsDone: e.done,
		VirtualMS:   e.virtualMS,
		Cumulative:  e.cum,
		Ring:        e.ring,
	}
}

// checkpointNow writes the current state to Config.CheckpointPath
// atomically (internal/atomicfile, so a crash mid-write never corrupts
// the previous checkpoint). Only the engine goroutine calls it, at
// window boundaries.
func (e *Engine) checkpointNow() error {
	if e.cfg.CheckpointPath == "" {
		return errors.New("serve: no checkpoint path configured")
	}
	e.mu.RLock()
	ck := e.checkpointLocked()
	buf, err := encodeCheckpoint(ck)
	e.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("serve: encode checkpoint: %w", err)
	}
	if err := atomicfile.Write(e.cfg.CheckpointPath, func(f *os.File) error {
		_, err := f.Write(append(buf, '\n'))
		return err
	}); err != nil {
		return fmt.Errorf("serve: write checkpoint: %w", err)
	}
	e.log.Info("checkpoint written",
		slog.String("path", e.cfg.CheckpointPath),
		slog.Int("windows_done", ck.WindowsDone),
		slog.Float64("virtual_ms", ck.VirtualMS))
	return nil
}

// encodeCheckpoint returns the bytes json.Marshal(ck) does, in one
// encoding pass: the envelope is written here and each snapshot through
// telemetry.WriteSnapshot. json.Marshal would run every sketch's
// MarshalJSON and then scan and compact their bytes again.
// The field names and omitempty rules are Checkpoint's and WindowResult's
// JSON tags; TestEncodeCheckpointMatchesMarshal pins the two byte-equal.
func encodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(`{"schema":`)
	buf.WriteString(strconv.Itoa(ck.Schema))
	if err := writeJSONField(&buf, `,"config":`, ck.Config); err != nil {
		return nil, err
	}
	buf.WriteString(`,"windows_done":`)
	buf.WriteString(strconv.Itoa(ck.WindowsDone))
	if err := writeJSONField(&buf, `,"virtual_ms":`, ck.VirtualMS); err != nil {
		return nil, err
	}
	if ck.Cumulative != nil {
		buf.WriteString(`,"cumulative":`)
		if err := writeSnapshotBody(&buf, ck.Cumulative); err != nil {
			return nil, err
		}
	}
	if len(ck.Ring) > 0 {
		buf.WriteString(`,"ring":[`)
		for i := range ck.Ring {
			w := &ck.Ring[i]
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(`{"index":`)
			buf.WriteString(strconv.Itoa(w.Index))
			if err := writeJSONField(&buf, `,"window":`, w.Window); err != nil {
				return nil, err
			}
			buf.WriteString(`,"snapshot":`)
			if w.Snapshot == nil {
				buf.WriteString("null")
			} else if err := writeSnapshotBody(&buf, w.Snapshot); err != nil {
				return nil, err
			}
			buf.WriteByte('}')
		}
		buf.WriteByte(']')
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// writeJSONField writes key and then v as json.Marshal encodes it.
func writeJSONField(buf *bytes.Buffer, key string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf.WriteString(key)
	buf.Write(b)
	return nil
}

// writeSnapshotBody writes s as WriteSnapshot does, without the newline
// that ends WriteSnapshot's output.
func writeSnapshotBody(buf *bytes.Buffer, s *telemetry.Snapshot) error {
	if err := telemetry.WriteSnapshot(buf, s); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1)
	return nil
}

// serviceCheckpointRequest answers one POST /checkpoint waiter: write
// the checkpoint, report what it covers.
func (e *Engine) serviceCheckpointRequest(reply chan ckptReply) {
	err := e.checkpointNow()
	e.mu.RLock()
	r := ckptReply{
		Path:        e.cfg.CheckpointPath,
		WindowsDone: e.done,
		VirtualMS:   e.virtualMS,
		err:         err,
	}
	e.mu.RUnlock()
	reply <- r
}

// drainCheckpointRequests services every queued checkpoint request
// without blocking. The engine calls it at each window boundary (and on
// exit), so a request issued mid-window waits at most one window.
func (e *Engine) drainCheckpointRequests() {
	for {
		select {
		case reply := <-e.ckptReq:
			e.serviceCheckpointRequest(reply)
		default:
			return
		}
	}
}

// failCheckpointWaiters unblocks queued checkpoint waiters when the
// engine dies so their HTTP requests error instead of hanging.
func (e *Engine) failCheckpointWaiters(err error) {
	for {
		select {
		case reply := <-e.ckptReq:
			reply <- ckptReply{err: fmt.Errorf("serve: engine stopped: %w", err)}
		default:
			return
		}
	}
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: load checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ReadCheckpoint decodes a checkpoint written by the engine. Like a spec
// it is decoded strictly: an unknown key (a renamed one included) or
// data after the checkpoint object is an error, not a field left at its
// default.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var ck Checkpoint
	err := dec.Decode(&ck)
	if err == nil {
		var extra json.RawMessage
		if dec.Decode(&extra) != io.EOF {
			err = errors.New("trailing data after checkpoint object")
		}
	}
	// Another schema's keys fail the strict decode, which still fills in
	// every key it knows: name the schema, not the first key it spells
	// differently. A document that breaks off before its schema has none.
	if ck.Schema != CheckpointSchema && (err == nil || ck.Schema != 0) {
		return nil, fmt.Errorf("serve: checkpoint schema %d, want %d: this build cannot resume it; start a fresh run (without -resume)", ck.Schema, CheckpointSchema)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: decode checkpoint: %w", err)
	}
	if ck.WindowsDone < 0 || (ck.WindowsDone > 0 && ck.Cumulative == nil) {
		return nil, fmt.Errorf("serve: checkpoint has %d windows done but no cumulative snapshot", ck.WindowsDone)
	}
	if len(ck.Ring) > ck.WindowsDone {
		return nil, fmt.Errorf("serve: checkpoint ring holds %d windows but only %d are done", len(ck.Ring), ck.WindowsDone)
	}
	return &ck, nil
}

// Runtime are the Config fields a resumed run may change without
// touching the replay: they schedule and persist work but never feed the
// simulation.
type Runtime struct {
	Pace                   float64
	CheckpointPath         string
	CheckpointEveryWindows int
	MaxWindows             int
	// Parallelism overrides Scenario.Parallelism when > 0 — shard
	// concurrency is determinism-neutral by the repo's core invariant.
	Parallelism int
}

// ResumeEngine rebuilds an engine from a checkpoint. Determinism-
// relevant configuration comes from the checkpoint; rt supplies the
// runtime knobs of the new process. The resumed engine's next window is
// ck.WindowsDone, so the window sequence — and therefore every snapshot
// — continues exactly as the uninterrupted run would.
func ResumeEngine(ck *Checkpoint, rt Runtime, log *slog.Logger) (*Engine, error) {
	cfg := ck.Config
	cfg.Pace = rt.Pace
	cfg.CheckpointPath = rt.CheckpointPath
	cfg.CheckpointEveryWindows = rt.CheckpointEveryWindows
	cfg.MaxWindows = rt.MaxWindows
	if rt.Parallelism > 0 {
		cfg.Scenario.Parallelism = rt.Parallelism
	}
	e, err := NewEngine(cfg, log)
	if err != nil {
		return nil, err
	}
	// Every later window merges into the fold: reject a fold it cannot fit.
	shape := telemetry.NewCampaignWith(telemetry.Config{SketchK: cfg.SketchK}).Snapshot()
	if _, err := telemetry.MergeSnapshots(shape, ck.Cumulative); err != nil {
		return nil, fmt.Errorf("serve: checkpoint fold does not fit its config: %w", err)
	}
	// The fold is deep-copied: the engine merges into its cumulative
	// snapshot in place, and sharing it with the checkpoint would corrupt
	// a second resume from the same loaded state.
	cum, err := telemetry.MergeSnapshots(nil, ck.Cumulative)
	if err != nil {
		return nil, err
	}
	e.cum = cum
	e.ring = append([]WindowResult(nil), ck.Ring...)
	e.done = ck.WindowsDone
	e.virtualMS = ck.VirtualMS
	return e, nil
}
