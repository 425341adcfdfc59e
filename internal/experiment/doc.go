// Package experiment turns measurement campaigns into data: a JSON
// scenario-spec format that maps onto workload.Scenario, named presets
// for the paper's comparative setups (paper-baseline, cold-start,
// flash-crowd, abr-ablation, cache-policy-matrix, zipf-sweep) and for
// its reproduction (paper-repro, and paper-seeds, its seed set; every
// file under examples/specs/ is one, embedded by package specs), a grid
// expander that crosses axes (abr × ram_gb × zipf_s × …) into experiment
// cells with deterministic per-cell seeds, and a campaign runner that
// executes cells through the streaming-telemetry pipeline
// (session.Execute in telemetry mode) with bounded parallelism — one named snapshot
// per cell plus an A/B delta against a declared baseline cell.
//
// The paper's value is comparative (§4–§6 contrast cache levels, org
// types, bitrates, and PoPs); this package is the substrate that lets
// every such contrast be written as a spec file under examples/specs/
// and replayed by cmd/sweep, cmd/vodsim -spec, cmd/repro -spec, and
// cmd/analyze -compare instead of living as hardcoded Go.
//
// A spec with "diagnosis": true additionally classifies every session's
// dominant bottleneck (internal/diagnose) during the run: cell snapshots
// then carry per-label cause counters and QoE sketches, and the A/B
// delta report includes per-label cause-share rows — campaigns can
// assert why a cell degraded, not just that it did.
//
// A spec with a "timeline" block (TimelineSpec) injects faults and
// degradations at scheduled virtual times (internal/timeline): PoP
// outages with failover, backend brownouts, cache-capacity shrinks,
// network-path degradation, and flash-crowd arrival surges, each a
// timed phase. The timeline presets (pop-outage, backend-brownout,
// degrade-recover) ship ready to run; cell snapshots gain per-window
// telemetry for cmd/analyze -windows. docs/SPECS.md is the normative
// field reference, pinned by a test against this package's types.
//
// Determinism: a cell's snapshot depends only on its scenario (seed
// included) and sketch parameter — never on how many cells ran
// concurrently or in what order — because each cell is an independent
// session.Execute telemetry run and those are byte-identical at any
// parallelism. Per-cell seeds derive from (base seed, cell name) via a
// splitmix64 finalizer, so regenerating a campaign reproduces it bit for
// bit.
package experiment
