// Command vidbench is the simulator's benchmark. It runs named workloads
// as closed loops of ops, checks every op's output, and reports the
// workload end to end (throughput, throughput per CPU-second, op time,
// set-up time, peak memory, allocations) and, with -trace 1, layer by
// layer from a replay of the first ops with every layer call timed.
//
// Run it from the repository root; bench/run.sh builds it first:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//
// With -workload, that workload runs in this process. Standard output
// has one "name value unit" line per metric and ends with one JSON
// object: {"correct", "attempted", "failed", "metrics"}, whose metrics
// are the end-to-end ones, or with -trace 1 the per-layer ones. Without
// -workload, every workload runs in a fresh child process, one after
// another. bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	name, cfg, ok := parseArgs(args, stderr)
	if !ok {
		return 2
	}
	if name == "" {
		return runAll(cfg, stdout, stderr)
	}
	w, _ := lookupWorkload(name)
	res, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "vidbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, w.name, cfg, res); err != nil {
		fmt.Fprintf(stderr, "vidbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// parseArgs reads the command line: the workload to run (empty for all)
// and the run's settings. It reports bad arguments on stderr.
func parseArgs(args []string, stderr io.Writer) (string, config, bool) {
	fs := flag.NewFlagSet("vidbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process (empty: every workload, each in a fresh child process)")
	seed := fs.Uint64("seed", 1, "seed every op's inputs derive from")
	seconds := fs.Float64("seconds", 25, "seconds of timed ops per workload")
	trace := fs.Int("trace", 0, "1: also replay the first ops with each layer call timed and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return "", config{}, false
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "vidbench: want [-workload NAME] [-seed N] [-seconds S>0] [-trace 0|1]")
		return "", config{}, false
	}
	if _, ok := lookupWorkload(*name); *name != "" && !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(stderr, "vidbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return "", config{}, false
	}
	return *name, config{seed: *seed, seconds: *seconds, trace: *trace == 1}, true
}

// runAll runs every workload in a fresh child process of this binary,
// one at a time, so each child's peak memory is its workload's own.
func runAll(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "vidbench: %v\n", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name,
			"-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", trace)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "vidbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// jsonMetric and jsonResult are the final output line's shape.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints one line per metric, any failures, and the JSON result.
func report(w io.Writer, name string, cfg config, res *result) error {
	fmt.Fprintf(w, "# vidbench %s seed=%d seconds=%g trace=%t\n", name, cfg.seed, cfg.seconds, cfg.trace)
	lines := append(append([]metric(nil), res.endToEnd...), res.info...)
	lines = append(append(lines, res.perLayer...), res.layerInfo...)
	for _, m := range lines {
		fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "# failed: %s\n", f)
	}
	out := jsonResult{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	ms := res.endToEnd
	if cfg.trace {
		ms = res.perLayer
	}
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // measure already counted the run as failed
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
