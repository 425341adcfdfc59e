// overlay.go is the one way a spec is refined: a spec file over its
// preset, an axis value over the base scenario, and a command-line flag
// over the spec it configures. Each refinement is a JSON object laid
// over the refined value's own JSON form — objects merge key by key,
// arrays and scalars replace — and the result is decoded once, strictly.
package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
)

// flagKeys maps every flag of vodsim, vodsim serve and sweep that
// configures a run to the spec key it overrides, as a dot-separated
// path. A command has a subset of these flags; a flag not listed here
// (an output path, a listen address) configures the command, not the
// spec.
var flagKeys = map[string]string{
	"seed":                "scenario.seed",
	"sessions":            "scenario.sessions",
	"prefixes":            "scenario.prefixes",
	"videos":              "scenario.videos",
	"abr":                 "scenario.abr",
	"cold":                "scenario.cold",
	"parallel":            "scenario.parallel",
	"sketch-k":            "sketch_k",
	"diagnose":            "diagnosis",
	"sessions-per-window": "serve.sessions_per_window",
	"window-min":          "serve.window_min",
	"ring":                "serve.ring",
	"pace":                "serve.pace",
	"checkpoint-every":    "serve.checkpoint_every_windows",
}

// overlay lays patch over base. Where both are JSON objects they merge
// key by key, recursively; anything else in patch (an array, a scalar,
// null) replaces base. A patch key replaces a base key that differs
// from it only in case, since the strict decoder matches keys without
// regard to case.
func overlay(base, patch json.RawMessage) (json.RawMessage, error) {
	var b, p map[string]json.RawMessage
	if json.Unmarshal(patch, &p) != nil || p == nil || json.Unmarshal(base, &b) != nil || b == nil {
		return patch, nil
	}
	for k, v := range p {
		for bk := range b {
			if bk != k && strings.EqualFold(bk, k) {
				b[k] = b[bk]
				delete(b, bk)
			}
		}
		merged, err := overlay(b[k], v)
		if err != nil {
			return nil, err
		}
		b[k] = merged
	}
	return json.Marshal(b)
}

// refine lays patch over the JSON form of *dst and decodes the result
// strictly into *dst: an unknown key or a value of the wrong type is an
// error and leaves *dst as it was.
func refine[T any](dst *T, patch json.RawMessage) error {
	base, err := json.Marshal(dst)
	if err != nil {
		return err
	}
	merged, err := overlay(base, patch)
	if err != nil {
		return err
	}
	var out T
	if err := decodeStrict(bytes.NewReader(merged), &out); err != nil {
		return err
	}
	*dst = out
	return nil
}

// patchAt returns the patch that sets the spec key at path to value:
// {"a": {"b": value}} for "a.b".
func patchAt(path string, value json.RawMessage) (json.RawMessage, error) {
	keys := strings.Split(path, ".")
	for i := len(keys) - 1; i >= 0; i-- {
		var err error
		if value, err = json.Marshal(map[string]json.RawMessage{keys[i]: value}); err != nil {
			return nil, err
		}
	}
	return value, nil
}

// setKey returns the patch that sets the spec key at path to value. It
// is an error when value does not decode into the key, or, unless
// zeroOK, when it decodes the way null does (0, "", an empty list): that
// value would leave the key unset, selecting its default.
func setKey(path string, value json.RawMessage, zeroOK bool) (json.RawMessage, error) {
	patch, err := patchAt(path, value)
	if err != nil {
		return nil, err
	}
	null, err := patchAt(path, json.RawMessage("null"))
	if err != nil {
		return nil, err
	}
	var set, unset Spec
	if err := refine(&set, patch); err != nil {
		return nil, err
	}
	if err := refine(&unset, null); err != nil {
		return nil, err
	}
	if !zeroOK && reflect.DeepEqual(set, unset) {
		return nil, fmt.Errorf("it would leave the key unset, selecting its default; give it a value")
	}
	return patch, nil
}

// OverrideFlags is how a command line configures a run: each flag visit
// passes that flagKeys lists overrides its spec key, through the same
// overlay a spec file lays over its preset, so the flag's value replaces
// the key's. visit is fs.Visit to apply the flags the user set on top
// of a spec file, or fs.VisitAll when the flags are the whole
// configuration. A value that would leave its key unset (0, or an empty
// name) is an error unless it is the flag's default. Validate checks the
// result.
func (s *Spec) OverrideFlags(visit func(func(*flag.Flag))) error {
	var err error
	visit(func(f *flag.Flag) {
		path, ok := flagKeys[f.Name]
		if err != nil || !ok {
			return
		}
		var value, patch json.RawMessage
		if value, err = json.Marshal(f.Value.(flag.Getter).Get()); err == nil {
			patch, err = setKey(path, value, f.Value.String() == f.DefValue)
		}
		if err == nil {
			err = refine(s, patch)
		}
		if err != nil {
			err = fmt.Errorf("experiment: -%s %s sets %s: %w", f.Name, f.Value, path, err)
		}
	})
	return err
}
