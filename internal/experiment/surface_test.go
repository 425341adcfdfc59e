package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vidperf/internal/proxypop"
)

// TestLoadRejectsRemovedKeys: the scenario and proxy keys that no
// shipped spec, axis or flag set are gone from the format. Their values
// are constants (the population mix, the server's disk and threadpool,
// the trombone window, jitter and beacon share) or Go-only fields (the
// ladder, chunk length, player thresholds and fleet shape), so a spec
// naming one fails to load, as a scenario key, as an axis and as a
// proxy block key.
func TestLoadRejectsRemovedKeys(t *testing.T) {
	for _, key := range []string{
		"chunk_sec", "bitrates", "start_threshold_sec", "max_buffer_sec",
		"non_us_frac", "enterprise_frac", "small_biz_frac", "gpu_frac",
		"pops", "servers_per_pop", "disk_gb", "workers",
	} {
		value := "1"
		if key == "bitrates" {
			value = "[235,3000]"
		}
		want := `unknown field "` + key + `"`
		for _, src := range []string{
			`{"name":"x","scenario":{"` + key + `":` + value + `}}`,
			`{"name":"x","axes":[{"name":"` + key + `","values":[` + value + `]}]}`,
		} {
			if _, err := Load(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %v, want one containing %q", src, err, want)
			}
		}
	}
	for _, key := range []string{"extra_rtt_min_ms", "extra_rtt_max_ms", "jitter_factor", "beacon_mismatch_prob"} {
		src := `{"name":"x","proxy":{"share":0.2,"` + key + `":1}}`
		if _, err := Load(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("%s: error %v, want an unknown field", src, err)
		}
	}
}

// unshippedKeys are the spec keys kept although no shipped spec or flag
// sets them, each for the open roadmap item that needs it.
var unshippedKeys = map[string]string{
	"open_retry_ms":       "ROADMAP item 6: the take-away grid sweeps the retry timer",
	"prefetch":            "ROADMAP item 6: the take-away grid sweeps prefetching",
	"pin_first_chunks":    "ROADMAP item 6: the take-away grid pins first chunks",
	"partition_top_ranks": "ROADMAP item 6: the take-away grid partitions hot titles",
	"proxy_frac":          "ROADMAP item 1: deleted with the legacy proxy model",
}

// TestSpecSurfaceIsUsed: every key of the scenario and proxy blocks is
// set by a shipped spec (examples/specs or bench/specs, as a key or an
// axis name), overridden by a command-line flag, or listed in
// unshippedKeys with the roadmap item that needs it. A key only tests
// set is a constant or a Go field, not part of the spec format.
func TestSpecSurfaceIsUsed(t *testing.T) {
	used := map[string]bool{}
	for _, path := range flagKeys {
		used[path] = true
	}
	var files []string
	for _, dir := range []string{"../../examples/specs", "../../bench/specs"} {
		m, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(m) == 0 {
			t.Fatalf("no spec files in %s: %v", dir, err)
		}
		files = append(files, m...)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Scenario map[string]json.RawMessage `json:"scenario"`
			Proxy    map[string]json.RawMessage `json:"proxy"`
			Axes     []struct {
				Name string `json:"name"`
			} `json:"axes"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for k := range doc.Scenario {
			used["scenario."+k] = true
		}
		for _, ax := range doc.Axes {
			used["scenario."+ax.Name] = true
		}
		for k := range doc.Proxy {
			used["proxy."+k] = true
		}
	}

	keys := map[string]bool{}
	for block, typ := range map[string]reflect.Type{
		"scenario": reflect.TypeOf(ScenarioSpec{}),
		"proxy":    reflect.TypeOf(proxypop.Config{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			keys[tag] = true
			_, listed := unshippedKeys[tag]
			switch {
			case used[block+"."+tag] && listed:
				t.Errorf("%s.%s is set by a shipped spec or flag now; drop it from unshippedKeys", block, tag)
			case !used[block+"."+tag] && !listed:
				t.Errorf("%s.%s is set by no shipped spec, no axis and no flag: make it a constant or a Go-only field, or list the roadmap item that needs it in unshippedKeys", block, tag)
			}
		}
	}
	for k := range unshippedKeys {
		if !keys[k] {
			t.Errorf("unshippedKeys lists %q, which is no scenario or proxy key", k)
		}
	}
}
