package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the shape of the repository's BENCHMARK.json that the
// output must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMain runs the tests from the repository root, as the benchmark
// runs, so they load the pinned specs in bench/specs and BENCHMARK.json.
func TestMain(m *testing.M) {
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny shrinks a pinned workload spec, once loaded and checked, to a size
// that runs in well under a second; the code path is the full one.
func tiny(b *benchSpec) {
	sc := &b.cell.Scenario
	sc.NumSessions = min(sc.NumSessions, 300)
	sc.NumPrefixes = min(sc.NumPrefixes, 100)
	sc.Catalog.NumVideos = min(sc.Catalog.NumVideos, 300)
	if b.spec.Serve != nil {
		b.spec.Serve.SessionsPerWindow = 40
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsTiny runs every workload traced on its pinned specs, shrunk
// to a tiny size: every spec must decode strictly and no op may
// fail (which includes the set-up repetitions agreeing, the parallelism
// re-check, the traced replay matching the untimed ops, and serve's final
// checkpoint), and every metric BENCHMARK.json names must be printed,
// with its unit, in the line format and in the final JSON line.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, vidbench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), vidbench has %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 3, seconds: 0.2, trace: true, resize: tiny}
			res, err := measure(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted < setupReps+2 {
				t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.failures)
			}
			for _, trace := range []bool{false, true} {
				cfg.trace = trace
				var out bytes.Buffer
				if err := report(&out, w.name, cfg, res); err != nil {
					t.Fatal(err)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				checkReport(t, out.String(), want)
			}
		})
	}
}

// checkReport checks report output against the metrics it must carry.
func checkReport(t *testing.T, out string, want []benchmarkMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 3 || !metricName.MatchString(f[0]) {
			t.Errorf("malformed metric line %q", l)
			continue
		}
		units[f[0]] = f[2]
	}
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("JSON result lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("JSON result has %d keys, want 4", len(keys))
	}
	var res jsonResult
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result %+v, want correct with no failed ops", res)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("JSON result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if units[m.Name] != m.Unit {
			t.Errorf("metric %s printed with unit %q, want %q", m.Name, units[m.Name], m.Unit)
		}
		jm, ok := res.Metrics[m.Name]
		if !ok || jm.Unit != m.Unit {
			t.Errorf("JSON metric %s = %+v, want unit %q", m.Name, jm, m.Unit)
		}
	}
}

// TestCommandLine reads the flags in the form bench/run.sh passes them on
// (double dashes, -trace as 0 or 1), then checks that bad flags, and a run
// from a directory without the specs, fail with no result printed.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "feature-sweep", "--seed", "5", "--seconds", "0.5", "--trace", "1"}
	name, cfg, ok := parseArgs(args, &stderr)
	if !ok || name != "feature-sweep" || cfg.seed != 5 || cfg.seconds != 0.5 || !cfg.trace {
		t.Errorf("%v read as %q %+v %v: %s", args, name, cfg, ok, stderr.String())
	}

	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "vod-stream", "--trace", "2"},
		{"--workload", "vod-stream", "--seconds", "0"},
		{"--workload", "vod-stream", "extra"},
	} {
		stdout.Reset()
		if code := run(bad, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want exit 2 and no output", bad, code, stdout.String())
		}
	}

	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(root)
	stdout.Reset()
	if code := run([]string{"--workload", "vod-stream"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("missing specs: exit %d with output %q, want failure and no output", code, stdout.String())
	}
}

func TestTailQuantile(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := tailQuantile(xs, 0.9); ok {
		t.Error("p90 reported from 99 samples")
	}
	xs = append(xs, 99)
	p90, ok := tailQuantile(xs, 0.9)
	if !ok || math.Abs(p90-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89.1, true", p90, ok)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// fakeRunner is a workload whose second timed op fails its output check.
type fakeRunner struct{}

func (fakeRunner) setup() (opOutput, error) { return okOutput(), nil }

func (fakeRunner) cycle() int { return 1 }

func (fakeRunner) timed(sample func(opOutput, time.Duration) bool) error {
	for i := 1; i <= 3; i++ {
		// Spend some CPU, so the per-CPU-second throughput is defined.
		for t0 := time.Now(); time.Since(t0) < 3*time.Millisecond; {
		}
		out := okOutput()
		if i == 2 {
			out.sessions--
		}
		sample(out, time.Millisecond)
	}
	return nil
}

func (fakeRunner) recheck([sha256.Size]byte, int) (int, error) { return 1, nil }

func (fakeRunner) traceOps() int { return 1 }

func (fakeRunner) trace(*layerTotals, []ref, func(error, float64)) error { return nil }

func okOutput() opOutput {
	return opOutput{want: 10, sessions: 10, chunks: 40, data: []byte("output")}
}

func TestFailedCheckCountsAsFailedOp(t *testing.T) {
	w := workloadDef{name: "fake", open: func(*env) (runner, error) { return fakeRunner{}, nil }}
	res, err := measure(w, config{seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || res.correct() {
		t.Fatalf("failed %d of %d ops (correct %v), want exactly one failure", res.failed, res.attempted, res.correct())
	}
	var frac float64
	for _, m := range res.info {
		if m.name == "failed_op_frac" {
			frac = m.value
		}
	}
	if want := 1 / float64(res.attempted); frac != want {
		t.Errorf("failed_op_frac = %v, want %v", frac, want)
	}
	var out bytes.Buffer
	if err := report(&out, w.name, config{}, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false,`) {
		t.Errorf("JSON result does not report the failure:\n%s", out.String())
	}
}
