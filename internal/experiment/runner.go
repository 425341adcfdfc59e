package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"vidperf/internal/atomicfile"
	"vidperf/internal/session"
	"vidperf/internal/telemetry"
)

// RunOptions configures one campaign execution.
type RunOptions struct {
	// Workers caps how many cells simulate concurrently (<= 0 runs the
	// cells sequentially). Each cell additionally shards by PoP inside
	// session.Execute per its Scenario.Parallelism, so the total
	// concurrency is Workers × per-cell shards; campaign drivers that
	// fan out across cells usually pin Scenario.Parallelism to 1.
	Workers int
	// OutDir, when non-empty, receives one snapshot file per cell named
	// Cell.FileName(). The directory is created if missing.
	OutDir string
	// Progress, when non-nil, is called as each cell finishes (from the
	// finishing goroutine; keep it cheap and thread-safe).
	Progress func(cell Cell, err error)
}

// CellResult pairs a cell with its snapshot.
type CellResult struct {
	Cell     Cell
	Snapshot *telemetry.Snapshot
	// Path is the snapshot file written for this cell ("" when
	// RunOptions.OutDir was empty).
	Path string
}

// CampaignResult is the outcome of RunCampaign: per-cell snapshots in
// grid order plus the index of the baseline cell for delta reports.
type CampaignResult struct {
	Spec  *Spec
	Cells []CellResult
	// BaselineIndex locates the spec's baseline cell in Cells (-1 only
	// for an empty grid, which Expand never produces).
	BaselineIndex int
}

// Baseline returns the baseline cell's result.
func (r *CampaignResult) Baseline() *CellResult {
	if r.BaselineIndex < 0 || r.BaselineIndex >= len(r.Cells) {
		return nil
	}
	return &r.Cells[r.BaselineIndex]
}

// RunCampaign expands the spec and executes every cell through the
// streaming-telemetry pipeline, at most opt.Workers cells at a time.
// Each cell's snapshot carries spec/cell/seed labels and is independent
// of scheduling, so the campaign's outputs are byte-stable across
// Workers settings and runs. The first cell error aborts scheduling of
// unstarted cells and is returned after in-flight cells drain.
//
// With OutDir set, the directory additionally receives a manifest.json
// recording the generating spec (name, content hash, cell list, seeds)
// before any cell runs — the record internal/store ingests a sweep by.
// A directory already claimed by a different spec's manifest is refused
// rather than silently overwritten.
func RunCampaign(spec *Spec, opt RunOptions) (*CampaignResult, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if opt.OutDir != "" {
		if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		if err := claimOutDir(opt.OutDir, BuildManifest(spec, cells)); err != nil {
			return nil, err
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	var abort sync.Once
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := RunCell(spec, cells[i], opt.OutDir)
				results[i] = res
				errs[i] = err
				if err != nil {
					abort.Do(func() { close(stop) })
				}
				if opt.Progress != nil {
					opt.Progress(cells[i], err)
				}
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case next <- i:
		case <-stop:
			break feed
		}
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: cell %s: %w", cells[i].Name, err)
		}
	}
	return &CampaignResult{
		Spec:          spec,
		Cells:         results,
		BaselineIndex: spec.BaselineIndex(cells),
	}, nil
}

// RunCell executes one cell and, when outDir is non-empty, writes its
// labelled snapshot to outDir/Cell.FileName().
func RunCell(spec *Spec, cell Cell, outDir string) (CellResult, error) {
	run, err := session.Execute(cell.Scenario, session.Options{
		Telemetry: true, SketchK: spec.EffectiveSketchK(), Diagnose: spec.Diagnosis,
	})
	if err != nil {
		return CellResult{Cell: cell}, err
	}
	sn := run.Snapshot
	sn.Labels = map[string]string{
		"spec": spec.Name,
		"cell": cell.Name,
		"seed": strconv.FormatUint(cell.Scenario.Seed, 10),
	}
	if spec.Diagnosis {
		sn.Labels["diagnosis"] = "on"
	}
	if spec.Timeline != nil {
		sn.Labels["timeline"] = fmt.Sprintf("%d-phase", len(spec.Timeline.Phases))
	}
	if spec.Live != nil {
		sn.Labels["live"] = fmt.Sprintf("%d-channel", spec.Live.Channels)
	}
	if spec.Proxy != nil {
		sn.Labels["proxy"] = fmt.Sprintf("share=%g", spec.Proxy.Share)
	}
	for name, value := range cell.Axes {
		sn.Labels["axis:"+name] = value
	}
	res := CellResult{Cell: cell, Snapshot: sn}
	if outDir != "" {
		res.Path = filepath.Join(outDir, cell.FileName())
		if err := atomicfile.Write(res.Path, func(f *os.File) error {
			return telemetry.WriteSnapshot(f, sn)
		}); err != nil {
			return res, err
		}
	}
	return res, nil
}
