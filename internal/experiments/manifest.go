package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
)

// BlockStats is the per-block-size simulation record of a run
// manifest: headline rates, the full counter set, and the
// per-processor decomposition.
type BlockStats struct {
	Block    int64             `json:"block"`
	MissRate float64           `json:"miss_rate"`
	FSRate   float64           `json:"fs_rate"`
	Stats    *cache.Stats      `json:"stats"`
	Procs    []cache.ProcStats `json:"procs"`
}

// NewBlockStats packages one simulator's stats for a manifest.
func NewBlockStats(st *cache.Stats) BlockStats {
	return BlockStats{
		Block:    st.Config.BlockSize,
		MissRate: st.MissRate(),
		FSRate:   st.FSRate(),
		Stats:    st,
		Procs:    st.PerProc(),
	}
}

// RunManifest runs fn under a fresh process-wide recorder and
// packages the recorded spans plus fn's result into one manifest
// (Data["result"]). The previously installed recorder is restored on
// return. fn's error is reported alongside the manifest, which is
// still valid for the spans recorded up to the failure.
func RunManifest(tool, name string, config map[string]any, fn func() (any, error)) (*obs.Report, error) {
	prev := obs.Default()
	rec := obs.NewRecorder()
	if prev != nil {
		rec.Verbose = prev.Verbose
		rec.LogW = prev.LogW
	}
	obs.Install(rec)
	result, err := fn()
	obs.Install(prev)

	rep := rec.Report(tool)
	rep.Config = config
	rep.AddData("name", name)
	if result != nil {
		rep.AddData("result", result)
	}
	if err != nil {
		rep.AddData("error", err.Error())
	}
	return rep, err
}

// WriteManifest writes one manifest as <dir>/<name>.json, creating
// dir if needed, and returns the path.
func WriteManifest(dir, name string, rep *obs.Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	if err := rep.WriteFile(path); err != nil {
		return "", fmt.Errorf("manifest %s: %w", path, err)
	}
	return path, nil
}

// ConfigMap renders an experiments.Config for a manifest, with the
// Figure 3 machine's processor counts (see fig3Procs).
func ConfigMap(cfg Config) map[string]any {
	return map[string]any{
		"scale":             cfg.Scale,
		"workers":           cfg.Workers,
		"fig3_procs":        12,
		"fig3_procs_topopt": 9,
		"fig3_blocks":       cfg.Fig3Blocks,
		"table2_blocks":     cfg.Table2Blocks,
		"sweep_counts":      cfg.SweepCounts,
		"verify":            cfg.Verify,
	}
}
