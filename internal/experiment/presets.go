package experiment

import (
	"bytes"
	"fmt"
	"strings"

	"vidperf/examples/specs"
)

// Preset loads the built-in spec <name>.json from examples/specs,
// exactly as Load reads it from a file.
func Preset(name string) (*Spec, error) {
	b, err := specs.FS.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("experiment: unknown preset %q (have %v)", name, Presets())
	}
	s, err := Load(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("preset %s: %w", name, err)
	}
	return s, nil
}

// Presets lists the built-in spec names in file-name order.
func Presets() []string {
	// The embedded root always exists, so ReadDir cannot fail.
	entries, _ := specs.FS.ReadDir(".")
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = strings.TrimSuffix(e.Name(), ".json")
	}
	return out
}
