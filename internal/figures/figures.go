// Package figures regenerates every table and figure in the paper's
// evaluation from a simulated dataset: each builder runs the corresponding
// internal/analysis computation, renders the same rows/series the paper
// plots, states the paper's reported result next to the measured one, and
// judges whether the qualitative shape (who wins, directions, crossovers)
// holds. cmd/repro assembles the output into EXPERIMENTS.md; bench_test.go
// times All, which computes each analysis once even when several figures
// read it.
package figures

import (
	"fmt"
	"math"
	"strings"

	"vidperf/internal/stats"
)

// Result is one regenerated figure or table.
type Result struct {
	ID    string // e.g. "fig05", "table4"
	Title string
	// Paper states what the paper reports for this figure/table.
	Paper string
	// Measured is the headline number(s) from the simulated dataset.
	Measured string
	// Lines are the rendered rows/series.
	Lines []string
	// Pass records whether the qualitative shape reproduces.
	Pass bool
	// Note documents known scale-induced deviations.
	Note string
}

// Render returns the result as a markdown section.
func (r Result) Render() string {
	var b strings.Builder
	status := "OK"
	if !r.Pass {
		status = "SHAPE MISMATCH"
	}
	fmt.Fprintf(&b, "### %s — %s [%s]\n\n", strings.ToUpper(r.ID), r.Title, status)
	fmt.Fprintf(&b, "- paper:    %s\n", r.Paper)
	fmt.Fprintf(&b, "- measured: %s\n", r.Measured)
	if r.Note != "" {
		fmt.Fprintf(&b, "- note:     %s\n", r.Note)
	}
	b.WriteString("\n```\n")
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteString("```\n")
	return b.String()
}

// cdfLine renders an ECDF as quantile columns.
func cdfLine(label string, e *stats.ECDF) string {
	if e == nil || e.N() == 0 {
		return fmt.Sprintf("%-22s (no samples)", label)
	}
	return fmt.Sprintf("%-22s n=%-7d p10=%-9.3g p25=%-9.3g p50=%-9.3g p75=%-9.3g p90=%-9.3g p99=%-9.3g",
		label, e.N(), e.Quantile(0.10), e.Quantile(0.25), e.Quantile(0.50),
		e.Quantile(0.75), e.Quantile(0.90), e.Quantile(0.99))
}

// binLines renders a binned-scatter series.
func binLines(xUnit, yUnit string, bins []stats.BinStat) []string {
	out := []string{fmt.Sprintf("%-16s %8s %10s %10s %10s %10s",
		xUnit, "n", "mean "+yUnit, "median", "p25", "p75")}
	for _, b := range bins {
		if b.N == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("[%6.4g,%6.4g) %8d %10.3f %10.3f %10.3f %10.3f",
			b.Lo, b.Hi, b.N, b.Mean, b.Median, b.P25, b.P75))
	}
	return out
}

// seriesLine renders an indexed series (per chunk ID).
func seriesLine(label string, xs []float64) string {
	parts := make([]string, 0, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d:%.2f", i, x))
	}
	return fmt.Sprintf("%-28s %s", label, strings.Join(parts, " "))
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
