// Package vidperf is a full reproduction of "Performance Characterization
// of a Commercial Video Streaming Service" (Ghasemi, Kanuparthy, Mansy,
// Benson, Rexford — IMC 2016) as a Go library.
//
// The paper's production substrate (Yahoo's CDN and its 523M-chunk trace)
// is closed, so this repository implements the complete delivery path as a
// calibrated simulator — ATS-like caching servers, an origin backend, a
// round-based TCP sender with kernel-style tcp_info sampling, per-prefix
// network paths, the client download stack and rendering path, ABR
// algorithms and the player buffer — plus the paper's actual contribution
// as reusable code: the end-to-end per-chunk instrumentation schema, the
// session join, proxy preprocessing, and the §4 diagnosis methods
// (Eqs. 1–5). Every table and figure in the evaluation is regenerated by
// internal/figures and benchmarked in bench_test.go; cmd/repro writes the
// paper-vs-measured report to EXPERIMENTS.md.
//
// The diagnosis methods compose into a per-session classifier
// (internal/diagnose): every finished session is attributed to the layer
// that dominated its problems — cache-miss-fetch and backend-latency
// (server, §4.1), network-throughput and network-loss (network, §4.2),
// client-stack (the Eq. 4/5 download-stack detectors, §4.3), abr-limited
// (§4.4), or healthy — and the streaming telemetry path counts labels and
// per-label QoE sketches at campaign scale (vodsim -stream -diagnose,
// analyze diagnose, and the "diagnosis" field of experiment specs).
//
// See README.md for the overview and ARCHITECTURE.md for the data flow,
// package map and determinism invariants.
package vidperf
