// Command benchdiff is the CI bench-regression gate: it parses `go test
// -bench` output, aggregates repeated counts per benchmark (taking the
// minimum, the least noisy statistic for a regression check), and
// compares ns/op, B/op and allocs/op against a committed baseline JSON
// (BENCH_BASELINE.json), failing when any of them regresses beyond the
// threshold. Gating allocs/op alongside B/op catches regressions that
// trade a few big allocations for millions of small ones — same bytes,
// very different GC bill. A chunks/s metric (simulated chunks per wall
// second, which the gate benches report) is recorded and printed next to
// them but never gated: ns/op already gates time.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkRunParallel$|BenchmarkStreamingRun$' -benchtime=1x -count=5 -benchmem | \
//	    go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -threshold 0.25
//
// Regenerate the baseline after an intentional perf change with:
//
//	go test -run '^$' -bench ... -count=5 -benchmem | go run ./cmd/benchdiff -update -baseline BENCH_BASELINE.json
//
// Benchmark names are matched with the -GOMAXPROCS suffix stripped, so a
// baseline recorded on an N-core machine still gates runners with a
// different core count (the 25% default threshold is deliberately loose
// for the same reason). Benchmarks present in only one side are reported
// but never fail the gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"vidperf/internal/logging"
)

// Baseline is the committed reference file.
type Baseline struct {
	Schema     int                  `json:"schema"`
	Note       string               `json:"note,omitempty"`
	Benchmarks map[string]BenchStat `json:"benchmarks"`
}

// BenchStat is one benchmark's reference numbers. Zero BPerOp or
// AllocsPerOp means the bench was recorded without -benchmem and that
// metric is not gated. ChunksPerS is informational; zero means the bench
// does not report it.
type BenchStat struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	ChunksPerS  float64 `json:"chunks_per_s,omitempty"`
}

func main() {
	log, _ := logging.New("") // the text handler; "" is always accepted
	fatal := func(msg string, err error) { logging.Fatal(log, msg, slog.Any("err", err)) }
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "committed baseline JSON")
		in           = flag.String("in", "", "bench output file (default stdin)")
		threshold    = flag.Float64("threshold", 0.25, "fail when ns/op or B/op regress by more than this fraction")
		update       = flag.Bool("update", false, "write the parsed results to -baseline instead of comparing")
	)
	flag.Parse()
	if len(flag.Args()) > 0 {
		fatal("invalid arguments", fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *threshold <= 0 {
		fatal("invalid flags", fmt.Errorf("-threshold must be > 0 (got %g)", *threshold))
	}

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal("input open failed", err)
		}
		defer f.Close()
		r = f
	}
	got, err := ParseBench(r)
	if err != nil {
		fatal("bench output parse failed", err)
	}
	if len(got) == 0 {
		logging.Fatal(log, "no benchmark results in input")
	}

	if *update {
		if err := writeBaseline(*baselinePath, got); err != nil {
			fatal("baseline write failed", err)
		}
		log.Info("baseline written", slog.Int("benchmarks", len(got)), slog.String("path", *baselinePath))
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal("baseline read failed", err)
	}
	regressions := Compare(os.Stdout, base.Benchmarks, got, *threshold)
	if regressions > 0 {
		logging.Fatal(log, "regressions beyond threshold", slog.Int("regressions", regressions),
			slog.String("threshold", fmt.Sprintf("%.0f%%", *threshold*100)))
	}
	fmt.Printf("no regressions beyond %.0f%%\n", *threshold*100)
}

// benchLine matches one result line of go test -bench output, e.g.
//
//	BenchmarkStreamingRun/stream-8   1   927442806 ns/op   12 B/op   3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)\s+\d+\s+(.+)$`)

// cpuSuffix is the trailing -GOMAXPROCS go test appends to bench names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// ParseBench extracts per-benchmark ns/op, B/op, allocs/op and chunks/s
// from go test -bench output, keeping the best across repeated counts of
// the same benchmark (the minimum cost, the maximum chunks/s) and
// stripping the "Benchmark" prefix and -GOMAXPROCS suffix from names.
func ParseBench(r io.Reader) (map[string]BenchStat, error) {
	out := map[string]BenchStat{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(strings.TrimPrefix(m[1], "Benchmark"), "")
		stat, ok := parseMetrics(m[2])
		if !ok {
			continue
		}
		if prev, dup := out[name]; dup {
			if stat.NsPerOp > prev.NsPerOp {
				stat.NsPerOp = prev.NsPerOp
			}
			if prev.BPerOp != 0 && (stat.BPerOp == 0 || stat.BPerOp > prev.BPerOp) {
				stat.BPerOp = prev.BPerOp
			}
			if prev.AllocsPerOp != 0 && (stat.AllocsPerOp == 0 || stat.AllocsPerOp > prev.AllocsPerOp) {
				stat.AllocsPerOp = prev.AllocsPerOp
			}
			stat.ChunksPerS = max(stat.ChunksPerS, prev.ChunksPerS)
		}
		out[name] = stat
	}
	return out, sc.Err()
}

// parseMetrics reads the "value unit" pairs after the iteration count.
func parseMetrics(s string) (BenchStat, bool) {
	fields := strings.Fields(s)
	var st BenchStat
	found := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return st, false
		}
		switch fields[i+1] {
		case "ns/op":
			st.NsPerOp = v
			found = true
		case "B/op":
			st.BPerOp = v
		case "allocs/op":
			st.AllocsPerOp = v
		case "chunks/s":
			st.ChunksPerS = v
		}
	}
	return st, found
}

// Compare prints the delta table and returns how many benchmarks
// regressed beyond the threshold on ns/op, B/op or allocs/op. chunks/s
// is printed but not gated. Benchmarks missing from either side are
// reported informationally.
func Compare(w io.Writer, base, got map[string]BenchStat, threshold float64) int {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "%-34s %14s %14s %8s %14s %14s %8s %12s %12s %8s %12s %12s %8s\n",
		"benchmark", "base ns/op", "new ns/op", "Δ%", "base B/op", "new B/op", "Δ%",
		"base allocs", "new allocs", "Δ%", "base chunk/s", "new chunk/s", "Δ%")
	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			fmt.Fprintf(w, "%-34s (not run)\n", name)
			continue
		}
		nsBad := b.NsPerOp > 0 && g.NsPerOp > b.NsPerOp*(1+threshold)
		bBad := b.BPerOp > 0 && g.BPerOp > b.BPerOp*(1+threshold)
		allocsBad := b.AllocsPerOp > 0 && g.AllocsPerOp > b.AllocsPerOp*(1+threshold)
		flag := ""
		if nsBad || bBad || allocsBad {
			flag = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %7.1f%% %14.0f %14.0f %7.1f%% %12.0f %12.0f %7.1f%% %12.0f %12.0f %7.1f%%%s\n",
			name, b.NsPerOp, g.NsPerOp, relPct(b.NsPerOp, g.NsPerOp),
			b.BPerOp, g.BPerOp, relPct(b.BPerOp, g.BPerOp),
			b.AllocsPerOp, g.AllocsPerOp, relPct(b.AllocsPerOp, g.AllocsPerOp),
			b.ChunksPerS, g.ChunksPerS, relPct(b.ChunksPerS, g.ChunksPerS), flag)
	}
	extra := make([]string, 0)
	for name := range got {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-34s (no baseline; run benchdiff -update to record)\n", name)
	}
	return regressions
}

func relPct(base, got float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (got - base) / base
}

func readBaseline(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var b Baseline
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != 1 {
		return nil, fmt.Errorf("%s: baseline schema %d, want 1", path, b.Schema)
	}
	return &b, nil
}

func writeBaseline(path string, got map[string]BenchStat) error {
	b := Baseline{
		Schema:     1,
		Note:       "min over -count repetitions of go test -bench; regenerate with: go test -run '^$' -bench 'BenchmarkRunParallel$|BenchmarkStreamingRun$' -benchtime=1x -count=5 -benchmem | go run ./cmd/benchdiff -update",
		Benchmarks: got,
	}
	buf, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
