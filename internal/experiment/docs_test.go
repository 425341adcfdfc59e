package experiment

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// specDocPath locates docs/SPECS.md relative to this package.
const specDocPath = "../../docs/SPECS.md"

// jsonTags collects the JSON field names of every struct in the spec
// format, recursing into nested and embedded structs of this module: a
// spec block may be another package's config (live.Config,
// proxypop.Config, timeline.Effects), decoded under its own tags.
func jsonTags(t reflect.Type, out map[string]bool) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "-" || (tag == "" && !f.Anonymous) {
			continue
		}
		if tag != "" {
			out[tag] = true
		}
		ft := f.Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct && strings.HasPrefix(ft.PkgPath(), "vidperf/") {
			jsonTags(ft, out)
		}
	}
}

// specFormatTags returns every JSON field name reachable from Spec.
func specFormatTags() map[string]bool {
	tags := map[string]bool{}
	jsonTags(reflect.TypeOf(Spec{}), tags)
	return tags
}

// TestSpecsDocCoversFields pins docs/SPECS.md to the Go spec format in
// both directions: every JSON field that exists in Go must appear in
// the doc as a `backticked` token, and every field-table row in the
// doc must name a field (or preset) that still exists. Adding a spec
// field without documenting it — or documenting one that was removed —
// fails here.
func TestSpecsDocCoversFields(t *testing.T) {
	doc, err := os.ReadFile(specDocPath)
	if err != nil {
		t.Fatalf("spec reference missing: %v", err)
	}
	text := string(doc)

	tags := specFormatTags()
	for tag := range tags {
		if !strings.Contains(text, "`"+tag+"`") {
			t.Errorf("spec field %q is not documented in docs/SPECS.md", tag)
		}
	}

	// Reverse direction: the first backticked token of every table row
	// must be a live spec field or a live preset name.
	known := map[string]bool{}
	for tag := range tags {
		known[tag] = true
	}
	for _, p := range Presets() {
		known[p] = true
	}
	rowToken := regexp.MustCompile("^\\| `([a-z0-9_-]+)`")
	for i, line := range strings.Split(text, "\n") {
		m := rowToken.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if !known[m[1]] {
			t.Errorf("docs/SPECS.md line %d documents %q, which is neither a spec field nor a preset", i+1, m[1])
		}
	}
}

// TestSpecsDocListsPresets: every built-in preset must be in the doc's
// preset table.
func TestSpecsDocListsPresets(t *testing.T) {
	doc, err := os.ReadFile(specDocPath)
	if err != nil {
		t.Fatalf("spec reference missing: %v", err)
	}
	for _, p := range Presets() {
		if !strings.Contains(string(doc), fmt.Sprintf("`%s`", p)) {
			t.Errorf("preset %q is not documented in docs/SPECS.md", p)
		}
	}
}

// TestSpecsDocListsFlags: every row of the flag table is in the doc's
// override table, and the doc's table has no other rows.
func TestSpecsDocListsFlags(t *testing.T) {
	doc, err := os.ReadFile(specDocPath)
	if err != nil {
		t.Fatalf("spec reference missing: %v", err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z_.]+)` \\| `-([a-z-]+)` \\|")
	documented := map[string]string{}
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		documented[m[2]] = m[1]
	}
	if !reflect.DeepEqual(documented, flagKeys) {
		t.Errorf("docs/SPECS.md maps flags to keys as %v, the flag table as %v", documented, flagKeys)
	}
}
