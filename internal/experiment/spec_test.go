package experiment

import (
	"encoding/json"
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vidperf/internal/timeline"
	"vidperf/internal/workload"
)

func load(t *testing.T, src string) *Spec {
	t.Helper()
	sp, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Load(%s): %v", src, err)
	}
	return sp
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"top-level typo", `{"name":"x","axis":[]}`, "axis"},
		{"scenario typo", `{"name":"x","scenario":{"session":5}}`, "session"},
		{"unknown axis", `{"name":"x","axes":[{"name":"warp","values":[1]}]}`, "warp"},
		{"axis value type", `{"name":"x","axes":[{"name":"sessions","values":["many"]}]}`, "sessions"},
		{"trailing garbage", `{"name":"x"} {"name":"y"}`, "trailing"},
		{"bad seed mode", `{"name":"x","seed_mode":"random"}`, "seed_mode"},
		{"duplicate axis", `{"name":"x","axes":[{"name":"abr","values":["hybrid"]},{"name":"abr","values":["fixed-low"]}]}`, "duplicate"},
		{"empty axis", `{"name":"x","axes":[{"name":"abr","values":[]}]}`, "no values"},
		{"missing name", `{"scenario":{"sessions":5}}`, "no name"},
		{"bad baseline", `{"name":"x","axes":[{"name":"cold","values":[false,true]}],"baseline":"cold=maybe"}`, "baseline"},
		{"unknown preset", `{"name":"x","preset":"warp-speed"}`, "preset"},
		{"tiny sketch k", `{"name":"x","sketch_k":2}`, "sketch_k"},
		{"huge sketch k", `{"name":"x","sketch_k":4611686018427387904}`, "sketch_k"},
		{"sketch k past the maximum", `{"name":"x","sketch_k":65537}`, "sketch_k"},
		{"odd sketch k", `{"name":"x","sketch_k":9}`, "sketch_k must be 0 or an even value in [8, 65536]"},
		{"unknown abr", `{"name":"x","scenario":{"abr":"nope"}}`, `cell base: session: unknown ABR algorithm "nope"`},
		{"unknown abr on an axis", `{"name":"x","axes":[{"name":"abr","values":["hybrid","nope"]}]}`, `cell abr=nope: session: unknown ABR algorithm "nope"`},
		{"zero on an axis", `{"name":"x","axes":[{"name":"zipf_s","values":[0,0.9]}]}`, `axis "zipf_s" = 0: it would leave the key unset`},
		{"empty name on an axis", `{"name":"x","axes":[{"name":"abr","values":[""]}]}`, `axis "abr" = "": it would leave the key unset`},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.src))
		if err == nil {
			t.Errorf("%s: accepted %s", c.name, c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestLoadRejectsOutOfRangeScenario pins Load to workload.Scenario.Validate:
// each value below once panicked in a run (negative counts, sizes,
// durations and exponents, an unknown cache policy), appended session
// refs without bound (negative sessions), or ran silently (fractions
// out of [0, 1]). As a scenario field or as an axis value, Load must
// refuse it with an error naming the key, and for an axis the cell.
func TestLoadRejectsOutOfRangeScenario(t *testing.T) {
	for _, c := range []struct{ key, value string }{
		{"prefixes", "-3"},
		{"videos", "-1"},
		{"zipf_s", "-0.9"},
		{"ram_gb", "-2"},
		{"mean_watched_chunks", "-10"},
		{"cache_policy", `"nope"`},
		{"sessions", "-5"},
		{"parallel", "-1"},
	} {
		field := `{"name":"x","scenario":{"` + c.key + `":` + c.value + `}}`
		if _, err := Load(strings.NewReader(field)); err == nil || !strings.Contains(err.Error(), "cell base: workload: "+c.key) {
			t.Errorf("scenario %s = %s: error %v, want one naming the key", c.key, c.value, err)
		}
		axis := `{"name":"x","axes":[{"name":"` + c.key + `","values":[` + c.value + `]}]}`
		want := "cell " + c.key + "=" + renderAxisValue(json.RawMessage(c.value)) + ": workload: " + c.key
		if _, err := Load(strings.NewReader(axis)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("axis %s = [%s]: error %v, want one containing %q", c.key, c.value, err, want)
		}
	}
	// A good value next to a bad one on an axis: the bad cell is named.
	_, err := Load(strings.NewReader(`{"name":"x","axes":[{"name":"videos","values":[100,-1]}]}`))
	if err == nil || !strings.Contains(err.Error(), "cell videos=-1") {
		t.Errorf("videos axis [100, -1]: error %v, want one naming cell videos=-1", err)
	}
}

// TestOverrideFlags checks the command-line override rule: each visited
// flag the flag table lists overrides its spec key through the overlay,
// replacing the spec's value; a zero value that would leave its key
// unset is refused unless it is the flag's default; and with VisitAll
// every listed flag applies.
func TestOverrideFlags(t *testing.T) {
	newFlags := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.Int("sessions", 20000, "")
		fs.Int("parallel", 0, "")
		fs.Uint64("seed", 1, "")
		fs.Bool("cold", false, "")
		fs.String("abr", "hybrid", "")
		fs.Int("prefetch", 1, "") // a scenario key, but no row of the flag table
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	sp := load(t, `{"name":"x","scenario":{"sessions":50,"parallel":3,"abr":"fixed-low"}}`)
	if err := sp.OverrideFlags(newFlags("-sessions", "70", "-seed", "0", "-cold=false", "-parallel", "0", "-prefetch", "9").Visit); err != nil {
		t.Fatal(err)
	}
	// -parallel 0, the flag's default, replaces the spec's 3 like a
	// file's 0 would: it selects the default.
	sc := sp.Scenario
	if sc.Sessions != 70 || sc.Seed == nil || *sc.Seed != 0 || sc.Cold == nil || *sc.Cold ||
		sc.Parallel != 0 || sc.ABR != "fixed-low" || sc.Prefetch != 0 {
		t.Fatalf("overridden scenario = %+v", sc)
	}
	for _, bad := range [][]string{{"-sessions", "0"}, {"-abr", ""}} {
		if err := load(t, `{"name":"x"}`).OverrideFlags(newFlags(bad...).Visit); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	sp = load(t, `{"name":"x"}`)
	if err := sp.OverrideFlags(newFlags().VisitAll); err != nil {
		t.Fatal(err)
	}
	if sc := sp.Scenario; sc.Sessions != 20000 || *sc.Seed != 1 || sc.ABR != "hybrid" || sc.Cold == nil {
		t.Fatalf("all-flags scenario = %+v", sc)
	}
}

func TestZeroFieldsInheritDefaults(t *testing.T) {
	sp := load(t, `{"name":"x","scenario":{"sessions":123}}`)
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Name != "base" {
		t.Fatalf("axis-less spec expanded to %v", cells)
	}
	sc := cells[0].Scenario
	if sc.NumSessions != 123 {
		t.Errorf("NumSessions = %d, want 123", sc.NumSessions)
	}
	// Unset fields stay zero, so the scenario inherits WithDefaults at
	// Build time — the same contract as a Go Scenario literal.
	want := workload.Scenario{NumSessions: 123}
	if !reflect.DeepEqual(sc, want) {
		t.Errorf("spec scenario = %+v, want zero-but-sessions %+v", sc, want)
	}
	eff := sc.WithDefaults()
	if eff.NumPrefixes != 2500 || eff.MaxBufferSec != 18 || eff.ABRName != "hybrid" {
		t.Errorf("defaults not inherited: prefixes=%d buffer=%g abr=%q",
			eff.NumPrefixes, eff.MaxBufferSec, eff.ABRName)
	}
}

func TestApplyCoversUnits(t *testing.T) {
	sp := load(t, `{"name":"x","scenario":{
		"seed": 7, "ram_gb": 0.5, "arrival_window_min": 2,
		"cache_policy": "gd-size", "open_retry_ms": 5, "zipf_s": 1.1,
		"cold": true, "pin_first_chunks": true, "abr": "buffer-based"}}`)
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sc := cells[0].Scenario
	if sc.Seed != 7 {
		t.Errorf("Seed = %d", sc.Seed)
	}
	if sc.Fleet.Server.RAMBytes != 1<<29 {
		t.Errorf("RAMBytes = %d, want %d", sc.Fleet.Server.RAMBytes, 1<<29)
	}
	if sc.ArrivalWindowMS != 120000 {
		t.Errorf("ArrivalWindowMS = %g, want 120000", sc.ArrivalWindowMS)
	}
	if sc.Fleet.Server.Policy != "gd-size" || sc.Fleet.Server.OpenRetryMS != 5 {
		t.Errorf("server config = %+v", sc.Fleet.Server)
	}
	if sc.Catalog.ZipfExponent != 1.1 || !sc.ColdStart || !sc.Fleet.Server.PinFirstChunks {
		t.Errorf("scenario = %+v", sc)
	}
	if sc.ABRName != "buffer-based" {
		t.Errorf("ABRName = %q", sc.ABRName)
	}
}

func TestGridExpansion(t *testing.T) {
	src := `{"name":"grid","scenario":{"sessions":10},"axes":[
		{"name":"cache_policy","values":["lru","lfu","gd-size"]},
		{"name":"ram_gb","values":[0.5,2]}]}`
	sp := load(t, src)
	cells, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("3x2 grid expanded to %d cells", len(cells))
	}
	wantNames := []string{
		"cache_policy=lru,ram_gb=0.5", "cache_policy=lru,ram_gb=2",
		"cache_policy=lfu,ram_gb=0.5", "cache_policy=lfu,ram_gb=2",
		"cache_policy=gd-size,ram_gb=0.5", "cache_policy=gd-size,ram_gb=2",
	}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Errorf("cell %d = %q, want %q (row-major, first axis slowest)", i, c.Name, wantNames[i])
		}
		if c.Index != i {
			t.Errorf("cell %q index = %d, want %d", c.Name, c.Index, i)
		}
		if c.Scenario.NumSessions != 10 {
			t.Errorf("cell %q lost base scenario: %+v", c.Name, c.Scenario)
		}
	}
	if cells[1].Scenario.Fleet.Server.RAMBytes != 2<<30 ||
		cells[0].Scenario.Fleet.Server.RAMBytes != 1<<29 {
		t.Errorf("axis values misapplied: %d / %d",
			cells[0].Scenario.Fleet.Server.RAMBytes, cells[1].Scenario.Fleet.Server.RAMBytes)
	}
	// Expansion is a pure function of the spec.
	again, err := load(t, src).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("two expansions of the same spec differ")
	}
}

func TestPerCellSeedsStableAndDistinct(t *testing.T) {
	src := `{"name":"seeds","seed_mode":"per-cell","scenario":{"seed":42},
		"axes":[{"name":"abr","values":["hybrid","buffer-based","fixed-low"]}]}`
	cells, err := load(t, src).Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for _, c := range cells {
		want := DeriveSeed(42, c.Name)
		if c.Scenario.Seed != want {
			t.Errorf("cell %q seed = %d, want DeriveSeed = %d", c.Name, c.Scenario.Seed, want)
		}
		if prev, dup := seen[c.Scenario.Seed]; dup {
			t.Errorf("cells %q and %q share seed %d", prev, c.Name, c.Scenario.Seed)
		}
		seen[c.Scenario.Seed] = c.Name
	}
	again, _ := load(t, src).Expand()
	for i := range cells {
		if cells[i].Scenario.Seed != again[i].Scenario.Seed {
			t.Errorf("cell %q seed unstable across expansions", cells[i].Name)
		}
	}
	// Shared mode (the default) pins every cell to the base seed.
	shared, err := load(t, `{"name":"s","scenario":{"seed":42},
		"axes":[{"name":"abr","values":["hybrid","buffer-based"]}]}`).Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range shared {
		if c.Scenario.Seed != 42 {
			t.Errorf("shared-mode cell %q seed = %d, want 42", c.Name, c.Scenario.Seed)
		}
	}
}

func TestBooleanAxisOverridesBase(t *testing.T) {
	// An explicit false must override a true base — the pointer-typed
	// spec fields exist for exactly this.
	src := `{"name":"cold","scenario":{"cold":true},
		"axes":[{"name":"cold","values":[false,true]}]}`
	cells, err := load(t, src).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Scenario.ColdStart != false || cells[1].Scenario.ColdStart != true {
		t.Errorf("cold axis cells = %v/%v, want false/true",
			cells[0].Scenario.ColdStart, cells[1].Scenario.ColdStart)
	}
}

func TestPresetOverlay(t *testing.T) {
	sp := load(t, `{"preset":"zipf-sweep","scenario":{"sessions":500}}`)
	if sp.Name != "zipf-sweep" {
		t.Errorf("Name = %q", sp.Name)
	}
	if sp.Scenario.Sessions != 500 {
		t.Errorf("override lost: sessions = %d", sp.Scenario.Sessions)
	}
	if sp.Scenario.Seed == nil || *sp.Scenario.Seed != 11 {
		t.Errorf("preset seed lost: %v", sp.Scenario.Seed)
	}
	if len(sp.Axes) != 1 || sp.Axes[0].Name != "zipf_s" {
		t.Errorf("preset axes lost: %+v", sp.Axes)
	}
	if sp.Baseline != "zipf_s=0.9" {
		t.Errorf("preset baseline lost: %q", sp.Baseline)
	}
	// The decoder matches keys without regard to case, so a file's
	// "Sessions" replaces the preset's "sessions".
	if sp := load(t, `{"preset":"zipf-sweep","scenario":{"Sessions":700}}`); sp.Scenario.Sessions != 700 {
		t.Errorf("override spelled \"Sessions\" lost: sessions = %d", sp.Scenario.Sessions)
	}
}

// TestPresetOverlayReplacesKeys: every key a file sets replaces its
// preset's, explicit zeros included — "diagnosis": false turns the
// preset's diagnosis off and a scenario 0 selects the default — while
// the keys it leaves out keep the preset's values. A timeline's phases
// are an array, so they replace the preset's whole, leaving no stale
// field of the preset's phase.
func TestPresetOverlayReplacesKeys(t *testing.T) {
	sp := load(t, `{"name":"brownout","preset":"pop-outage","diagnosis":false,
		"scenario":{"sessions":0},
		"timeline":{"phases":[{"name":"brownout","start_min":5,"duration_min":5,"backend_latency_factor":3}]}}`)
	if sp.Diagnosis {
		t.Error(`"diagnosis": false left the preset's diagnosis on`)
	}
	if sc := sp.Scenario; sc.Sessions != 0 || sc.Seed == nil || *sc.Seed != 41 || sc.Prefixes != 600 {
		t.Errorf("scenario = %+v, want sessions 0 (the default) over the preset's seed 41 and 600 prefixes", sc)
	}
	want := []PhaseSpec{{Name: "brownout", StartMin: 5, DurationMin: 5, Effects: timeline.Effects{BackendLatencyFactor: 3}}}
	if sp.Timeline == nil || !reflect.DeepEqual(sp.Timeline.Phases, want) {
		t.Errorf("timeline = %+v, want exactly the file's phase %+v", sp.Timeline, want)
	}
}

// shippedSpecFiles lists examples/specs/*.json, the built-in presets.
func shippedSpecFiles(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected the shipped spec set under examples/specs/, found %v", paths)
	}
	return paths
}

// TestPresetsValidate resolves every registered preset by name, the way
// sweep -preset does, and checks it validates, expands and names a
// baseline cell of its grid.
func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		sp, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		cells, err := sp.Expand()
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		if sp.BaselineIndex(cells) < 0 {
			t.Errorf("preset %s: baseline %q resolves to no cell", name, sp.Baseline)
		}
	}
}

// TestShippedSpecFilesLoad checks every shipped file, and so every
// preset, loads, expands and names a baseline cell of its grid.
func TestShippedSpecFilesLoad(t *testing.T) {
	for _, p := range shippedSpecFiles(t) {
		sp, err := LoadFile(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		cells, err := sp.Expand()
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if sp.BaselineIndex(cells) < 0 {
			t.Errorf("%s: baseline %q resolves to no cell", p, sp.Baseline)
		}
	}
}

// TestPresetsAreTheShippedFiles pins the preset registry to
// examples/specs: one preset per file, named by its stem, loading to the
// spec (and so the manifest spec_hash) that sweep -spec loads from the
// file. A file whose name differs from its stem would rename the
// campaign under {"preset": stem}.
func TestPresetsAreTheShippedFiles(t *testing.T) {
	paths := shippedSpecFiles(t)
	stems := make([]string, len(paths))
	for i, p := range paths {
		stems[i] = strings.TrimSuffix(filepath.Base(p), ".json")
	}
	if got := Presets(); !reflect.DeepEqual(got, stems) {
		t.Fatalf("Presets() = %v, want the file stems %v", got, stems)
	}
	for i, p := range paths {
		file, err := LoadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if file.Name != stems[i] {
			t.Errorf("%s: name %q, want its stem %q", p, file.Name, stems[i])
		}
		preset, err := Preset(stems[i])
		if err != nil {
			t.Fatal(err)
		}
		if preset.Hash() != file.Hash() {
			t.Errorf("preset %s hashes %s, its file %s", stems[i], preset.Hash(), file.Hash())
		}
	}
}

func TestCellFileName(t *testing.T) {
	c := Cell{Name: `abr=buffer-based,ram_gb=0.5`}
	if got := c.FileName(); got != "abr=buffer-based-ram_gb=0.5.json" {
		t.Errorf("FileName = %q", got)
	}
	weird := Cell{Name: `a/b c,d`}
	if got := weird.FileName(); strings.ContainsAny(got, "/ ,") {
		t.Errorf("FileName %q keeps unsafe characters", got)
	}
}

func TestAxisValueRendering(t *testing.T) {
	for _, c := range []struct {
		raw, want string
	}{
		// "1.0" must collapse to "1": cell names/seeds may not depend on
		// how a spec spells the value.
		{`"lru"`, "lru"}, {`0.5`, "0.5"}, {`2`, "2"}, {`false`, "false"}, {`1.0`, "1"},
	} {
		if got := renderAxisValue(json.RawMessage(c.raw)); got != c.want {
			t.Errorf("renderAxisValue(%s) = %q, want %q", c.raw, got, c.want)
		}
	}
}
