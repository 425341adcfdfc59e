package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: vidperf
cpu: Fake CPU @ 2.00GHz
BenchmarkRunParallel/p1-8         	       1	2000000000 ns/op	       900 chunks
BenchmarkRunParallel/p1-8         	       1	1800000000 ns/op	       900 chunks
BenchmarkStreamingRun/stream-8    	       1	 950000000 ns/op	     40000 chunks/s	 120000000 B/op	   50000 allocs/op
BenchmarkStreamingRun/stream-8    	       1	 900000000 ns/op	     42000 chunks/s	 121000000 B/op	   49000 allocs/op
PASS
ok  	vidperf	12.3s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	p1, ok := got["RunParallel/p1"]
	if !ok {
		t.Fatalf("RunParallel/p1 missing (cpu suffix not stripped?): %v", got)
	}
	if p1.NsPerOp != 1.8e9 {
		t.Errorf("RunParallel/p1 ns/op = %g, want min 1.8e9", p1.NsPerOp)
	}
	if p1.BPerOp != 0 || p1.ChunksPerS != 0 {
		t.Errorf("RunParallel/p1 B/op = %g, chunks/s = %g, want 0 (not reported)", p1.BPerOp, p1.ChunksPerS)
	}
	st, ok := got["StreamingRun/stream"]
	if !ok {
		t.Fatalf("StreamingRun/stream missing: %v", got)
	}
	if st.NsPerOp != 9e8 || st.BPerOp != 1.2e8 || st.AllocsPerOp != 49000 || st.ChunksPerS != 42000 {
		t.Errorf("StreamingRun/stream = %+v, want min ns=9e8 B=1.2e8 allocs=49000, max chunks/s=42000", st)
	}
	if len(got) != 2 {
		t.Errorf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}

func TestCompareThreshold(t *testing.T) {
	base := map[string]BenchStat{
		"fast":    {NsPerOp: 100, BPerOp: 1000},
		"mem":     {NsPerOp: 100, BPerOp: 1000},
		"missing": {NsPerOp: 100},
	}
	var sb strings.Builder
	// Within threshold: +20% ns, B/op flat.
	n := Compare(&sb, base, map[string]BenchStat{
		"fast": {NsPerOp: 120, BPerOp: 1000},
		"mem":  {NsPerOp: 100, BPerOp: 1100},
		"new":  {NsPerOp: 5},
	}, 0.25)
	if n != 0 {
		t.Fatalf("within-threshold run reported %d regressions:\n%s", n, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "missing") || !strings.Contains(out, "(not run)") {
		t.Errorf("missing benchmark not reported:\n%s", out)
	}
	if !strings.Contains(out, "new") || !strings.Contains(out, "no baseline") {
		t.Errorf("unknown benchmark not reported:\n%s", out)
	}

	// ns/op regression beyond threshold.
	sb.Reset()
	if n := Compare(&sb, base, map[string]BenchStat{
		"fast": {NsPerOp: 130, BPerOp: 1000},
		"mem":  {NsPerOp: 100, BPerOp: 1000},
	}, 0.25); n != 1 {
		t.Errorf("ns/op regression: got %d, want 1\n%s", n, sb.String())
	}

	// B/op regression beyond threshold, ns/op fine.
	sb.Reset()
	if n := Compare(&sb, base, map[string]BenchStat{
		"fast": {NsPerOp: 100, BPerOp: 1000},
		"mem":  {NsPerOp: 100, BPerOp: 1300},
	}, 0.25); n != 1 {
		t.Errorf("B/op regression: got %d, want 1\n%s", n, sb.String())
	}
}

func TestCompareAllocsGate(t *testing.T) {
	base := map[string]BenchStat{
		"mem": {NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 500},
		"old": {NsPerOp: 100}, // recorded without -benchmem: allocs not gated
	}

	// allocs/op regression beyond threshold while ns/op and B/op are flat.
	var sb strings.Builder
	if n := Compare(&sb, base, map[string]BenchStat{
		"mem": {NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 700},
		"old": {NsPerOp: 100, AllocsPerOp: 1e9},
	}, 0.25); n != 1 {
		t.Errorf("allocs/op regression: got %d, want 1\n%s", n, sb.String())
	}

	// Within threshold passes.
	sb.Reset()
	if n := Compare(&sb, base, map[string]BenchStat{
		"mem": {NsPerOp: 100, BPerOp: 1000, AllocsPerOp: 600},
		"old": {NsPerOp: 100},
	}, 0.25); n != 0 {
		t.Errorf("within-threshold allocs reported %d regressions\n%s", n, sb.String())
	}
}

// TestCompareChunksPerSecondNotGated: chunks/s is printed with its delta
// but a drop never counts as a regression (ns/op gates time).
func TestCompareChunksPerSecondNotGated(t *testing.T) {
	base := map[string]BenchStat{"run": {NsPerOp: 100, ChunksPerS: 50000}}
	var sb strings.Builder
	if n := Compare(&sb, base, map[string]BenchStat{"run": {NsPerOp: 100, ChunksPerS: 10000}}, 0.25); n != 0 {
		t.Errorf("chunks/s drop reported %d regressions\n%s", n, sb.String())
	}
	if out := sb.String(); !strings.Contains(out, "50000") || !strings.Contains(out, "-80.0%") {
		t.Errorf("chunks/s not printed with its delta:\n%s", out)
	}
}
