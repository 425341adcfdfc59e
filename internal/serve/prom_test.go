package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vidperf/internal/telemetry"
)

// promFamily is one parsed metric family of a text exposition.
type promFamily struct {
	help    string
	typ     string
	samples []promSample
}

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parsePromText validates a Prometheus text-format (0.0.4) exposition
// line by line — HELP/TYPE ordering, metric and label name charsets,
// quoted label values, parseable sample values — and returns the
// families. Any violation fails the test.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	var current string
	for ln, line := range strings.Split(text, "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("line %d %q: %s", ln+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) {
				fail("malformed HELP line")
			}
			if _, dup := families[name]; dup {
				fail("family %s declared twice", name)
			}
			families[name] = &promFamily{help: help}
			current = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name != current {
				fail("TYPE does not follow its HELP line")
			}
			switch typ {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				fail("unknown type %q", typ)
			}
			families[name].typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			fail("unknown comment form")
		}

		// Sample line: name[{labels}] value
		nameAndLabels, valueStr, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(valueStr, " ") {
			fail("sample line is not `name value`")
		}
		value, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			fail("unparseable value: %v", err)
		}
		name := nameAndLabels
		labels := map[string]string{}
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			if !strings.HasSuffix(nameAndLabels, "}") {
				fail("unterminated label set")
			}
			name = nameAndLabels[:i]
			for _, pair := range splitLabels(t, nameAndLabels[i+1:len(nameAndLabels)-1]) {
				k, quoted, ok := strings.Cut(pair, "=")
				if !ok || !promLabelRe.MatchString(k) {
					fail("malformed label pair %q", pair)
				}
				v, err := strconv.Unquote(quoted)
				if err != nil {
					fail("label value %s is not a quoted string: %v", quoted, err)
				}
				labels[k] = v
			}
		}
		if !promNameRe.MatchString(name) {
			fail("invalid metric name %q", name)
		}
		fam := name
		if families[fam] == nil {
			// Summary/histogram children attach to their base family.
			for _, suffix := range []string{"_sum", "_count", "_bucket"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && families[base] != nil {
					fam = base
					break
				}
			}
		}
		if families[fam] == nil {
			fail("sample for undeclared family %q", name)
		}
		if fam != current {
			fail("sample appears outside its family's block")
		}
		families[fam].samples = append(families[fam].samples,
			promSample{name: name, labels: labels, value: value})
	}
	return families
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(t *testing.T, body string) []string {
	t.Helper()
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		parts = append(parts, body[start:])
	}
	return parts
}

// TestMetricsExpositionFormat scrapes a running engine and validates the
// whole exposition with the strict parser: every expected family is
// present and typed, counters carry consistent totals, summaries have
// quantile samples plus _sum/_count, and no sample is NaN.
func TestMetricsExpositionFormat(t *testing.T) {
	cfg := testConfig(13, 0)
	cfg.MaxWindows = 2
	cfg.Diagnose = true
	eng := runEngine(t, cfg)

	rec := doReq(t, eng, http.MethodGet, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	if strings.Contains(rec.Body.String(), "NaN") {
		t.Error("exposition contains NaN")
	}
	families := parsePromText(t, rec.Body.String())

	wantTyped := map[string]string{
		"vodsim_windows_completed_total":      "counter",
		"vodsim_virtual_ms":                   "gauge",
		"vodsim_sessions_total":               "counter",
		"vodsim_sessions_never_started_total": "counter",
		"vodsim_chunks_total":                 "counter",
		"vodsim_chunks_hit_total":             "counter",
		"vodsim_chunks_retry_timer_total":     "counter",
		"vodsim_cache_hit_ratio":              "gauge",
		"vodsim_startup_ms":                   "summary",
		"vodsim_rebuffer_rate":                "summary",
		"vodsim_sessions_diag_total":          "counter",
		"vodsim_live_window_sessions":         "gauge",
		"vodsim_live_window_chunks":           "gauge",
		"vodsim_shard_queue_depth":            "gauge",
		"vodsim_records_per_second":           "gauge",
		"vodsim_goroutines":                   "gauge",
		"vodsim_heap_alloc_bytes":             "gauge",
	}
	for name, typ := range wantTyped {
		fam := families[name]
		if fam == nil {
			t.Errorf("family %s missing", name)
			continue
		}
		if fam.typ != typ {
			t.Errorf("family %s typed %q, want %q", name, fam.typ, typ)
		}
		if len(fam.samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
		if fam.help == "" {
			t.Errorf("family %s has no help text", name)
		}
	}

	single := func(name string) float64 {
		t.Helper()
		fam := families[name]
		if fam == nil || len(fam.samples) != 1 {
			t.Fatalf("family %s: want exactly one sample", name)
		}
		return fam.samples[0].value
	}
	if got := single("vodsim_windows_completed_total"); got != 2 {
		t.Errorf("windows_completed = %g", got)
	}
	if got := single("vodsim_sessions_total"); got != float64(2*cfg.SessionsPerWindow) {
		t.Errorf("sessions_total = %g, want %d", got, 2*cfg.SessionsPerWindow)
	}
	if got := single("vodsim_virtual_ms"); got != 2*cfg.WindowMS {
		t.Errorf("virtual_ms = %g, want %g", got, 2*cfg.WindowMS)
	}
	hits, chunks := single("vodsim_chunks_hit_total"), single("vodsim_chunks_total")
	if chunks <= 0 || hits > chunks {
		t.Errorf("chunk counters inconsistent: hit=%g total=%g", hits, chunks)
	}
	if got := single("vodsim_cache_hit_ratio"); got != hits/chunks {
		t.Errorf("cache_hit_ratio = %g, want %g", got, hits/chunks)
	}

	// Summaries: three quantile samples, _sum, and _count, with the count
	// matching the sessions that actually started.
	startup := families["vodsim_startup_ms"]
	var quantiles, count int
	var sumValue, countValue float64
	for _, s := range startup.samples {
		switch s.name {
		case "vodsim_startup_ms":
			if _, ok := s.labels["quantile"]; !ok {
				t.Error("startup sample without quantile label")
			}
			quantiles++
		case "vodsim_startup_ms_sum":
			sumValue = s.value
		case "vodsim_startup_ms_count":
			count++
			countValue = s.value
			if s.value <= 0 {
				t.Errorf("startup count = %g", s.value)
			}
		}
	}
	if quantiles != 3 || count != 1 {
		t.Errorf("startup summary has %d quantile samples and %d counts", quantiles, count)
	}
	// _sum and _count are the cumulative startup sketch's exact sum and
	// sample count (%g prints the shortest form that parses back).
	cum, err := telemetry.ReadSnapshot(bytes.NewReader(engineSnapshotBytes(t, eng)))
	if err != nil {
		t.Fatal(err)
	}
	sk := cum.Sketch(telemetry.MetricStartupMS)
	if sumValue != sk.Sum() || countValue != float64(sk.N()) {
		t.Errorf("startup _sum %v, _count %v; want the sketch's %v and %d", sumValue, countValue, sk.Sum(), sk.N())
	}

	// Diagnosis counters are labelled and sum to the session total.
	var diagSum float64
	for _, s := range families["vodsim_sessions_diag_total"].samples {
		if s.labels["label"] == "" {
			t.Error("diag sample without label")
		}
		diagSum += s.value
	}
	if diagSum != float64(2*cfg.SessionsPerWindow) {
		t.Errorf("diag labels sum to %g, want %d", diagSum, 2*cfg.SessionsPerWindow)
	}
}

// TestMetricsScrapeDeterministic: two scrapes of the same engine state
// differ only in the process gauges (goroutines, heap) — the telemetry
// families are byte-identical, matching the fixed write order.
func TestMetricsScrapeDeterministic(t *testing.T) {
	cfg := testConfig(17, 0)
	cfg.SessionsPerWindow = 40
	cfg.MaxWindows = 1
	eng := runEngine(t, cfg)
	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "goroutines") || strings.Contains(line, "heap_alloc") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	a := doReq(t, eng, http.MethodGet, "/metrics").Body.String()
	b := doReq(t, eng, http.MethodGet, "/metrics").Body.String()
	if strip(a) != strip(b) {
		t.Fatal("two scrapes of unchanged state differ outside the process gauges")
	}
}
