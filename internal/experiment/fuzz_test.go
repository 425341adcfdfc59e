package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeSpec throws arbitrary bytes at the strict spec decoder. The
// contract under fuzzing: Load either returns an error or a spec that
// validates and expands — never a panic, and never a half-parsed spec
// that fails later in the pipeline. (The strict decoding rules — unknown
// fields, unknown axes, trailing garbage, bad schema — are each pinned
// by example in spec_test.go; the fuzzer hunts for inputs that dodge all
// of them.)
func FuzzDecodeSpec(f *testing.F) {
	// Seed with every shipped spec file (the valid shapes) plus the
	// malformed shapes the strict decoder exists to reject.
	files, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		``,
		`{}`,
		`null`,
		`{"name":"x"}`,
		`{"name":"x","schema":99}`,
		`{"name":"x","session":100}`, // typo'd field
		`{"name":"x","axes":[{"name":"nope","values":[1]}]}`,            // unknown axis
		`{"name":"x","axes":[{"name":"abr","values":["hybrid"]}]} true`, // trailing garbage
		`{"name":"x","preset":"no-such-preset"}`,
		`{"preset":"paper-baseline"}`,
		`{"name":"x","seed_mode":"banana"}`,
		`{"name":"x","sketch_k":3}`,
		`{"name":"x","diagnosis":true}`,
		`{"name":"x","axes":[{"name":"cold","values":[false,true]},{"name":"cold","values":[true]}]}`,
		`{"name":"x","baseline":"missing-cell"}`,
		`{"name":"x","scenario":{"seed":18446744073709551615}}`,
		`{"name":"x","scenario":{"bitrates":[235,3000]},"axes":[{"name":"zipf_s","values":[0.6,1.1]}]}`,
		`{"name":"x","scenario":{"bitrates":[235,239,750,1750]}}`, // shared cache key code
		`{"name":"x","scenario":{"bitrates":[3000,750,235]}}`,     // unsorted ladder
		`{"name":"x","scenario":{"bitrates":[0,750,41200]}}`,      // zero and oversized rungs
		`{"name":"x","axes":[{"name":"bitrates","values":[[235,3000],[750,750]]}]}`,
		`{"name":"x","live":{"channels":8}}`,
		`{"name":"x","live":{"channels":0}}`,
		`{"name":"x","live":{"channels":-1}}`,
		`{"name":"x","live":{"channels":4,"switch_per_min":100}}`,
		`{"name":"x","live":{"channels":4,"chunk_seconds":6}}`, // typo'd live field
		`{"name":"x","live":{"channels":4,"join":"zipf","join_zipf_s":1.1}}`,
		`{"name":"x","serve":{"window_min":5},"live":{"channels":4}}`, // mutually exclusive
		`{"name":"x","proxy":{"share":0.23}}`,
		`{"name":"x","proxy":{"share":0}}`,    // a proxy block must enable the model
		`{"name":"x","proxy":{"share":1.5}}`,  // share out of range
		`{"name":"x","proxy":{"shares":0.2}}`, // typo'd proxy field
		`{"name":"x","proxy":{"share":0.2,"cohorts":4096,"egress_kbps":25000}}`,
		`{"name":"x","proxy":{"share":0.2,"extra_rtt_min_ms":200,"extra_rtt_max_ms":25}}`, // min > max
		`{"name":"x","proxy":{"share":0.2},"live":{"channels":4}}`,                        // proxy composes with live
		`{"name":"x","proxy":{"share":0.2},"serve":{"window_min":5}}`,                     // proxy composes with serve
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking or half-parsing is not
		}
		if sp.Name == "" {
			t.Fatalf("Load accepted a nameless spec from %q", data)
		}
		if sp.Schema != SpecSchema {
			t.Fatalf("Load returned schema %d from %q", sp.Schema, data)
		}
		cells, err := sp.Expand()
		if err != nil {
			t.Fatalf("loaded spec fails to expand: %v (input %q)", err, data)
		}
		if len(cells) == 0 {
			t.Fatalf("loaded spec expands to zero cells (input %q)", data)
		}
		if sp.BaselineIndex(cells) < 0 {
			t.Fatalf("loaded spec has no baseline cell (input %q)", data)
		}
	})
}
