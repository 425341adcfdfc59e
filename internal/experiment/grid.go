package experiment

import (
	"encoding/json"
	"fmt"
	"strings"

	"vidperf/internal/live"
	"vidperf/internal/proxypop"
	"vidperf/internal/stats"
	"vidperf/internal/workload"
)

// Cell is one point of the expanded campaign grid: a name built from its
// axis values, the fully-resolved scenario (seed included), and the axis
// assignment that produced it.
type Cell struct {
	// Name is "base" for an axis-less spec, else the ordered
	// "axis=value" pairs joined with ",", e.g. "cache_policy=lru,ram_gb=0.5".
	Name string
	// Index is the cell's position in grid order (first axis slowest).
	Index int
	// Scenario is ready to run: base scenario + axis overlays + the
	// cell's seed.
	Scenario workload.Scenario
	// Axes maps axis name to the rendered value, for labels and reports.
	Axes map[string]string
}

// FileName returns the cell's snapshot file name: the cell name with
// characters that are awkward in paths replaced by "-", plus ".json".
func (c Cell) FileName() string {
	var b strings.Builder
	for _, r := range c.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '=', r == '+', r == '-':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	return b.String() + ".json"
}

// renderAxisValue formats one axis value for cell names: strings lose
// their quotes; everything else is re-marshalled through Go's canonical
// JSON encoding so equivalent spellings collapse to one name ("1.0" and
// "1" both render "1" — cell names, file names, and per-cell seeds must
// not depend on how a spec spelled the value). Unparseable values fall
// back to their raw text.
func renderAxisValue(v json.RawMessage) string {
	var s string
	if err := json.Unmarshal(v, &s); err == nil {
		return s
	}
	var parsed any
	if err := json.Unmarshal(v, &parsed); err == nil {
		if b, err := json.Marshal(parsed); err == nil {
			return string(b)
		}
	}
	return strings.TrimSpace(string(v))
}

// DeriveSeed maps (base seed, cell name) to the cell's scenario seed in
// SeedPerCell mode: an FNV-1a fold of the name through
// stats.SplitMix64. It is a pure function, so campaigns regenerate
// identically run to run and cells keep their seeds when unrelated axes
// are added.
func DeriveSeed(base uint64, cellName string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(cellName); i++ {
		h ^= uint64(cellName[i])
		h *= fnvPrime
	}
	return stats.SplitMix64(base ^ h)
}

// Expand crosses the spec's axes into the cell grid, first axis slowest
// (row-major in declaration order). A cell's scenario is the base
// scenario with each axis value laid over it left to right (see
// overlay); in SeedPerCell mode the seed is then re-derived from the
// cell name. Expansion is deterministic: the same spec always yields the
// same cells, names, and seeds.
func (s *Spec) Expand() ([]Cell, error) {
	tl, err := s.Timeline.Build()
	if err != nil {
		return nil, fmt.Errorf("experiment: spec %s: %w", s.Name, err)
	}
	// A present live or proxy block turns its feature on and takes its
	// package's defaults; an absent one leaves the zero config, which is
	// the feature off.
	var lv live.Config
	if s.Live != nil {
		if s.Live.Channels < 1 {
			return nil, fmt.Errorf("experiment: spec %s: live block: channels must be >= 1 (got %d)", s.Name, s.Live.Channels)
		}
		lv = s.Live.WithDefaults()
		if err := lv.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: spec %s: live block: %w", s.Name, err)
		}
	}
	var px proxypop.Config
	if s.Proxy != nil {
		if s.Proxy.Share <= 0 {
			return nil, fmt.Errorf("experiment: spec %s: proxy block: share must be > 0 (got %g)", s.Name, s.Proxy.Share)
		}
		px = s.Proxy.WithDefaults()
		if err := px.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: spec %s: proxy block: %w", s.Name, err)
		}
	}
	build := func(scen ScenarioSpec) workload.Scenario {
		sc := scen.Apply(workload.Scenario{})
		sc.Timeline, sc.Live, sc.Proxy = tl, lv, px
		return sc
	}
	base := build(s.Scenario)
	if len(s.Axes) == 0 {
		return []Cell{{Name: "base", Scenario: base, Axes: map[string]string{}}}, nil
	}
	n := 1
	for _, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("experiment: spec %s: axis %q has no values", s.Name, ax.Name)
		}
		if n > 10000/len(ax.Values) {
			return nil, fmt.Errorf("experiment: spec %s: grid exceeds 10000 cells", s.Name)
		}
		n *= len(ax.Values)
	}
	cells := make([]Cell, 0, n)
	idx := make([]int, len(s.Axes))
	for i := 0; i < n; i++ {
		scen := s.Scenario
		parts := make([]string, len(s.Axes))
		axes := make(map[string]string, len(s.Axes))
		for a, ax := range s.Axes {
			v := ax.Values[idx[a]]
			patch, err := patchAt(ax.Name, v)
			if err == nil {
				err = refine(&scen, patch)
			}
			if err != nil {
				return nil, fmt.Errorf("experiment: spec %s: axis %q = %s: %w", s.Name, ax.Name, v, err)
			}
			rendered := renderAxisValue(v)
			parts[a] = ax.Name + "=" + rendered
			axes[ax.Name] = rendered
		}
		name := strings.Join(parts, ",")
		sc := build(scen)
		if s.SeedMode == SeedPerCell {
			sc.Seed = DeriveSeed(base.Seed, name)
		}
		cells = append(cells, Cell{Name: name, Index: i, Scenario: sc, Axes: axes})
		for a := len(s.Axes) - 1; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(s.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
	}
	return cells, nil
}
