package experiment

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
		{"shared rung code", `{"name":"x","scenario":{"bitrates":[235,239,750,1750]}}`, "share cache key code"},
		{"unsorted ladder", `{"name":"x","scenario":{"bitrates":[3000,750,235]}}`, "ascending"},
		{"zero rung", `{"name":"x","scenario":{"bitrates":[0,750,41200]}}`, "out of range"},
		{"oversized rung", `{"name":"x","scenario":{"bitrates":[750,41200]}}`, "out of range"},
		{"bad ladder on an axis", `{"name":"x","axes":[{"name":"bitrates","values":[[235,3000],[750,750]]}]}`, "cell bitrates="},
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
		"seed": 7, "ram_gb": 0.5, "disk_gb": 2, "arrival_window_min": 2,
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
	if sc.Fleet.Server.DiskBytes != 2<<30 {
		t.Errorf("DiskBytes = %d, want %d", sc.Fleet.Server.DiskBytes, int64(2<<30))
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
}

func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		sp, ok := Preset(name)
		if !ok {
			t.Fatalf("Preset(%q) missing", name)
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

func TestShippedSpecFilesLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("expected the shipped spec set under examples/specs/, found %v", paths)
	}
	for _, p := range paths {
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
		// "1.0" must collapse to "1": a preset's float64(1.0) marshals
		// as "1", and cell names/seeds may not depend on the spelling.
		{`"lru"`, "lru"}, {`0.5`, "0.5"}, {`2`, "2"}, {`false`, "false"}, {`1.0`, "1"},
	} {
		if got := renderAxisValue(json.RawMessage(c.raw)); got != c.want {
			t.Errorf("renderAxisValue(%s) = %q, want %q", c.raw, got, c.want)
		}
	}
}
