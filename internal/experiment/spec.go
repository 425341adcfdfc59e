package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"vidperf/internal/live"
	"vidperf/internal/proxypop"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
	"vidperf/internal/workload"
)

// SpecSchema is the spec-format version Load accepts. It is independent
// of the telemetry snapshot schema.
const SpecSchema = 1

// SeedMode selects how cells of one campaign derive their scenario seed.
const (
	// SeedShared gives every cell the spec's base seed, so cells differ
	// only in the swept axes — a paired comparison (the mode the old
	// hardcoded cmd/sweep used). This is the default.
	SeedShared = "shared"
	// SeedPerCell derives each cell's seed from (base seed, cell name)
	// via DeriveSeed, decorrelating the cells' random streams while
	// staying reproducible run to run.
	SeedPerCell = "per-cell"
)

// Spec is one declarative campaign: a base scenario, optional sweep axes,
// and the reporting configuration. The zero value of every scenario field
// inherits workload.Scenario's defaults (Scenario.WithDefaults), so a
// spec states only what it changes — exactly like constructing a
// Scenario literal in Go.
type Spec struct {
	// Schema must be SpecSchema (or 0, which Load fills in) so future
	// format changes fail loudly instead of half-parsing.
	Schema int `json:"schema,omitempty"`

	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Preset names a built-in spec (see Presets) this spec starts from;
	// the file's own scenario fields and axes then override it. A file
	// that is just {"preset": "paper-baseline"} replays the preset.
	Preset string `json:"preset,omitempty"`

	// Scenario is the base cell configuration before axes apply.
	Scenario ScenarioSpec `json:"scenario,omitempty"`

	// SketchK is the telemetry quantile-sketch compaction parameter
	// (0 selects telemetry.DefaultSketchK; error bound ≈ 4/k).
	SketchK int `json:"sketch_k,omitempty"`

	// SeedMode is SeedShared (default) or SeedPerCell.
	SeedMode string `json:"seed_mode,omitempty"`

	// Diagnosis, when true, classifies every session's dominant
	// bottleneck (internal/diagnose) during the streamed run, so each
	// cell's snapshot carries per-label cause counters and QoE sketches
	// — the campaign can then report *why* a cell degraded, not just
	// that it did. It is an output toggle, not a scenario knob: the
	// simulated world is identical either way.
	Diagnosis bool `json:"diagnosis,omitempty"`

	// Timeline injects faults and degradations at scheduled virtual
	// times (internal/timeline): PoP outages with failover, backend
	// brownouts, cache-capacity shrinks, network-path degradation, and
	// flash-crowd arrival surges, each a timed phase. It also turns on
	// windowed telemetry: every cell's snapshot carries per-window QoE
	// (and, with diagnosis, cause-label) state for cmd/analyze -windows.
	// The timeline is shared by every cell of the grid; it is not an
	// axis.
	Timeline *TimelineSpec `json:"timeline,omitempty"`

	// Serve configures continuous service mode (`vodsim serve -spec`):
	// window length, sessions per window, ring size, pace, checkpoint
	// interval. Batch drivers ignore it; it is incompatible with a
	// timeline (phase injection is a batch-campaign feature).
	Serve *ServeSpec `json:"serve,omitempty"`

	// Live turns the campaign into a live/linear one (internal/live):
	// sessions join one of the configured channels at the live edge and
	// may only fetch chunks the shared publish clock has released, so a
	// drained buffer waits on the clock (live-edge lag) instead of the
	// delivery path. Live campaigns additionally record join_time_ms and
	// live_edge_lag_ms sketches plus per-channel session counters. It is
	// incompatible with serve mode (live campaigns are batch campaigns);
	// like the timeline it is shared by every cell, not an axis. Its keys
	// are live.Config's; channels is required (>= 1), and every other key
	// is optional, inheriting internal/live's calibrated defaults.
	Live *live.Config `json:"live,omitempty"`

	// Proxy places a share of sessions behind shared-egress proxy/NAT
	// cohorts (internal/proxypop): tromboned paths with extra RTT and
	// inflated jitter, one egress IP per cohort, and the §3 detector
	// signals recorded per session. Unlike timeline and live it composes
	// with both serve and live modes — proxied enterprises exist in
	// every campaign shape. Shared by every cell, not an axis. Its keys
	// are proxypop.Config's; share is required (in (0, 1]), and every
	// other key is optional, inheriting internal/proxypop's calibrated
	// defaults.
	Proxy *proxypop.Config `json:"proxy,omitempty"`

	// Axes are crossed into the cell grid in declaration order (first
	// axis slowest). A spec with no axes is a single cell named "base".
	Axes []Axis `json:"axes,omitempty"`

	// Baseline names the cell the delta report diffs against (default:
	// the first cell in grid order).
	Baseline string `json:"baseline,omitempty"`
}

// Axis is one swept dimension: a scenario field name (the ScenarioSpec
// JSON name, e.g. "abr", "ram_gb", "zipf_s") and the values it takes.
type Axis struct {
	Name   string            `json:"name"`
	Values []json.RawMessage `json:"values"`
}

// ScenarioSpec is the JSON face of workload.Scenario: the sweepable knobs
// with snake_case names and campaign-friendly units (GB, minutes). Zero
// values select Scenario.WithDefaults' defaults, so Apply only writes
// fields the spec set. Booleans and the seed are pointers so an explicit
// false/0 is a value (an axis like "cold": [false, true] must produce
// two distinct cells).
type ScenarioSpec struct {
	Seed     *uint64 `json:"seed,omitempty"`
	Sessions int     `json:"sessions,omitempty"`
	Prefixes int     `json:"prefixes,omitempty"`
	Parallel int     `json:"parallel,omitempty"`

	// Catalog.
	Videos int     `json:"videos,omitempty"`
	ZipfS  float64 `json:"zipf_s,omitempty"`

	// Client behaviour and mix.
	ABR               string  `json:"abr,omitempty"`
	MeanWatchedChunks float64 `json:"mean_watched_chunks,omitempty"`
	ArrivalWindowMin  float64 `json:"arrival_window_min,omitempty"`
	ProxyFrac         float64 `json:"proxy_frac,omitempty"`

	// CDN server.
	RAMGB             float64 `json:"ram_gb,omitempty"`
	CachePolicy       string  `json:"cache_policy,omitempty"`
	OpenRetryMS       float64 `json:"open_retry_ms,omitempty"`
	Prefetch          int     `json:"prefetch,omitempty"`
	PinFirstChunks    *bool   `json:"pin_first_chunks,omitempty"`
	PartitionTopRanks int     `json:"partition_top_ranks,omitempty"`

	Cold *bool `json:"cold,omitempty"`
}

// Apply overlays the spec's set fields onto base and returns the result.
// Zero (or nil) fields leave base untouched.
func (s ScenarioSpec) Apply(base workload.Scenario) workload.Scenario {
	sc := base
	if s.Seed != nil {
		sc.Seed = *s.Seed
	}
	if s.Sessions != 0 {
		sc.NumSessions = s.Sessions
	}
	if s.Prefixes != 0 {
		sc.NumPrefixes = s.Prefixes
	}
	if s.Parallel != 0 {
		sc.Parallelism = s.Parallel
	}
	if s.Videos != 0 {
		sc.Catalog.NumVideos = s.Videos
	}
	if s.ZipfS != 0 {
		sc.Catalog.ZipfExponent = s.ZipfS
	}
	if s.ABR != "" {
		sc.ABRName = s.ABR
	}
	if s.MeanWatchedChunks != 0 {
		sc.MeanWatchedChunks = s.MeanWatchedChunks
	}
	if s.ArrivalWindowMin != 0 {
		sc.ArrivalWindowMS = s.ArrivalWindowMin * 60 * 1000
	}
	if s.ProxyFrac != 0 {
		sc.ResidentialProxyFrac = s.ProxyFrac
	}
	if s.RAMGB != 0 {
		sc.Fleet.Server.RAMBytes = int64(s.RAMGB * float64(1<<30))
	}
	if s.CachePolicy != "" {
		sc.Fleet.Server.Policy = s.CachePolicy
	}
	if s.OpenRetryMS != 0 {
		sc.Fleet.Server.OpenRetryMS = s.OpenRetryMS
	}
	if s.Prefetch != 0 {
		sc.Fleet.Server.Prefetch = s.Prefetch
	}
	if s.PinFirstChunks != nil {
		sc.Fleet.Server.PinFirstChunks = *s.PinFirstChunks
	}
	if s.PartitionTopRanks != 0 {
		sc.Fleet.PartitionTopRanks = s.PartitionTopRanks
	}
	if s.Cold != nil {
		sc.ColdStart = *s.Cold
	}
	return sc
}

// decodeStrict decodes one JSON value rejecting unknown fields and
// trailing garbage.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("trailing data after spec object")
	}
	return nil
}

// Load parses and validates a spec, resolving its preset (if any) and
// rejecting unknown fields — a typo like "session" instead of "sessions"
// fails here, not as a silently-default campaign. A file that names a
// preset is laid over it (see overlay): every key the file sets replaces
// the preset's, and a block the file sets refines the preset's block
// key by key.
func Load(r io.Reader) (*Spec, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("experiment: read spec: %w", err)
	}
	var s Spec
	if err := decodeStrict(bytes.NewReader(raw), &s); err != nil {
		return nil, fmt.Errorf("experiment: parse spec: %w", err)
	}
	if s.Schema != 0 && s.Schema != SpecSchema {
		return nil, fmt.Errorf("experiment: spec schema %d, want %d", s.Schema, SpecSchema)
	}
	if s.Preset != "" {
		base, err := Preset(s.Preset)
		if err != nil {
			return nil, err
		}
		if err := refine(base, raw); err != nil {
			return nil, fmt.Errorf("experiment: parse spec: %w", err)
		}
		s = *base
	}
	s.Schema = SpecSchema
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile is Load on a file path.
func LoadFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Validate checks everything Expand relies on: a name, a legal seed mode
// and sketch parameter, well-formed axes (known scenario fields, values
// that decode into them and set them, no duplicate axis), every cell's
// scenario (workload.Scenario.Validate) and ABR name, the serve block
// (serve.Config.Validate), and a baseline that names a cell of the grid.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("experiment: spec has no name")
	}
	switch s.SeedMode {
	case "", SeedShared, SeedPerCell:
	default:
		return fmt.Errorf("experiment: spec %s: seed_mode %q, want %q or %q",
			s.Name, s.SeedMode, SeedShared, SeedPerCell)
	}
	// An odd k would be rounded up by telemetry.NewSketch, leaving the
	// manifest's sketch_k different from every snapshot's.
	if s.SketchK != 0 && (s.SketchK < 8 || s.SketchK > telemetry.MaxSketchK || s.SketchK%2 != 0) {
		return fmt.Errorf("experiment: spec %s: sketch_k must be 0 or an even value in [8, %d] (got %d)",
			s.Name, telemetry.MaxSketchK, s.SketchK)
	}
	seen := map[string]bool{}
	for _, ax := range s.Axes {
		if ax.Name == "" {
			return fmt.Errorf("experiment: spec %s: axis with no name", s.Name)
		}
		if seen[ax.Name] {
			return fmt.Errorf("experiment: spec %s: duplicate axis %q", s.Name, ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("experiment: spec %s: axis %q has no values", s.Name, ax.Name)
		}
		for _, v := range ax.Values {
			if _, err := setKey("scenario."+ax.Name, v, false); err != nil {
				return fmt.Errorf("experiment: spec %s: axis %q = %s: %w", s.Name, ax.Name, v, err)
			}
		}
	}
	cells, err := s.Expand()
	if err != nil {
		return err
	}
	// Every cell is range-checked, since an axis may sweep any knob.
	for _, c := range cells {
		err := c.Scenario.Validate()
		if err == nil {
			_, err = session.NewABR(c.Scenario.ABRName)
		}
		if err != nil {
			return fmt.Errorf("experiment: spec %s: cell %s: %w", s.Name, c.Name, err)
		}
	}
	if s.Serve != nil {
		if err := s.ServeConfig(cells[0]).Validate(); err != nil {
			return fmt.Errorf("experiment: spec %s: serve block: %w", s.Name, err)
		}
	}
	if s.Baseline != "" {
		if s.BaselineIndex(cells) < 0 {
			names := make([]string, len(cells))
			for i, c := range cells {
				names[i] = c.Name
			}
			return fmt.Errorf("experiment: spec %s: baseline %q names no cell (cells: %v)",
				s.Name, s.Baseline, names)
		}
	}
	return nil
}

// BaselineIndex returns the index of the spec's baseline cell in cells
// (the first cell when unspecified), or -1 if the named baseline is
// absent.
func (s *Spec) BaselineIndex(cells []Cell) int {
	if s.Baseline == "" {
		if len(cells) == 0 {
			return -1
		}
		return 0
	}
	for i, c := range cells {
		if c.Name == s.Baseline {
			return i
		}
	}
	return -1
}

// EffectiveSketchK resolves the spec's sketch parameter.
func (s *Spec) EffectiveSketchK() int {
	if s.SketchK <= 0 {
		return telemetry.DefaultSketchK
	}
	return s.SketchK
}
