// merge.go folds whole snapshots together — the operation continuous
// service mode (internal/serve) performs once per closed window: the
// cumulative state is the running fold of the per-window snapshots, and
// the /windows view is the fold of the ring. Per-key sketch and counter
// merges are independent of each other, so the folded state depends only
// on the sequence of MergeSnapshots calls, never on map iteration order,
// preserving the byte-identity invariant.
package telemetry

import (
	"fmt"
	"strings"
)

// MergeSnapshots folds src into dst and returns dst. A nil dst starts a
// new fold as a deep copy of src, so `acc, _ = MergeSnapshots(acc, sn)`
// accumulates from acc == nil. src is never modified and shares no
// mutable state with the result. Windows concatenate in call order;
// VirtualMS takes the maximum of the two stamps; labels are not merged
// (provenance belongs to the fold's owner, not its inputs).
func MergeSnapshots(dst, src *Snapshot) (*Snapshot, error) {
	if src == nil {
		return dst, nil
	}
	if dst == nil {
		dst = &Snapshot{
			Schema:   SnapshotSchema,
			SketchK:  src.SketchK,
			Sketches: make(map[string]*QuantileSketch, len(src.Sketches)),
			Counters: make(map[string]uint64, len(src.Counters)),
		}
	}
	if src.SketchK != dst.SketchK {
		return dst, fmt.Errorf("telemetry: merging snapshot with sketch k=%d into k=%d", src.SketchK, dst.SketchK)
	}
	for name, sk := range src.Sketches {
		if sk == nil {
			continue
		}
		if d, ok := dst.Sketches[name]; ok {
			d.Merge(sk)
		} else {
			dst.Sketches[name] = sk.Clone()
		}
	}
	for name, n := range src.Counters {
		dst.Counters[name] += n
	}
	dst.Windows = append(dst.Windows, src.Windows...)
	if src.VirtualMS > dst.VirtualMS {
		dst.VirtualMS = src.VirtualMS
	}
	return dst, nil
}

// windowKeyMark matches any sketch or counter key carrying the window
// dimension ("<base>_window=<name>" and the two-dimensional
// "sessions_window=<name>_diag=<label>" forms alike).
var windowKeyMark = "_" + WindowDim + "="

// WithoutWindows returns a view of the snapshot with every window-keyed
// sketch and counter, the window list, and the virtual-time stamp
// removed. The base aggregates are shared with s, not copied — the
// result is a read-only filter, safe to merge from but not to mutate.
//
// Windowed attribution only adds window-keyed state next to the base
// aggregates, so stripping it from a windowed run's snapshot yields
// exactly the snapshot the same run would have produced without windows;
// this identity is what lets serve's cumulative fold match the
// equivalent batch run byte for byte.
func WithoutWindows(s *Snapshot) *Snapshot {
	out := &Snapshot{
		Schema:   s.Schema,
		SketchK:  s.SketchK,
		Sketches: make(map[string]*QuantileSketch, len(s.Sketches)),
		Counters: make(map[string]uint64, len(s.Counters)),
	}
	for name, sk := range s.Sketches {
		if !strings.Contains(name, windowKeyMark) {
			out.Sketches[name] = sk
		}
	}
	for name, n := range s.Counters {
		if !strings.Contains(name, windowKeyMark) {
			out.Counters[name] = n
		}
	}
	return out
}
