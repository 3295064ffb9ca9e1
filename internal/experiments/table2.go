package experiments

import (
	"fmt"
	"sort"
	"strings"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// Table2Row is one row of Table 2: a program's total false-sharing
// reduction and the fraction attributable to each transformation,
// averaged over the 8-256 byte block sizes.
type Table2Row struct {
	Program string
	// Total is the total false-sharing miss reduction (percent of the
	// unoptimized program's false-sharing misses eliminated by the
	// fully transformed version).
	Total float64
	// ByKind is the reduction achieved by each transformation applied
	// alone (percent of the unoptimized false-sharing misses).
	GroupTranspose float64
	Indirection    float64
	PadAlign       float64
	Locks          float64
}

// onlyConfigs builds the heuristic configurations that enable exactly
// one transformation, for the per-transformation attribution.
func onlyConfigs() map[string]transform.Config {
	all := func() transform.Config { return transform.Config{} }
	return map[string]transform.Config{
		"all": all(),
		"gt": {
			DisableIndirection: true, DisablePadAlign: true, CoAllocateLocks: true,
		},
		"ind": {
			DisableGroupTranspose: true, DisablePadAlign: true, CoAllocateLocks: true,
		},
		"pad": {
			DisableGroupTranspose: true, DisableIndirection: true, CoAllocateLocks: true,
		},
		"locks": {
			DisableGroupTranspose: true, DisableIndirection: true, DisablePadAlign: true,
		},
	}
}

// table2Key indexes one Table 2 measurement: a benchmark's FS miss
// count at one block size, for the unoptimized program ("N") or one
// heuristic variant.
type table2Key struct {
	prog    string
	block   int64
	variant string // "N" or an onlyConfigs key
}

// Table2 regenerates the paper's Table 2 for the six unoptimizable
// programs: the false-sharing reduction of the full restructurer and
// of each transformation in isolation, averaged over the block sizes.
//
// Every (program × block × variant) measurement — including the
// unoptimized reference — is an independent job; the reductions are
// aggregated after the fan-out, in the same block order as the old
// serial loop. Variant runs at block sizes where the unoptimized
// program shows no false sharing are discarded, exactly as the serial
// path skipped them.
//
// When some measurements fail (and cfg.Policy keeps going), a block
// size is dropped from a program's average when its reference or any
// variant is missing, and the row itself is dropped when no block
// size survives; a *Partial error names the failed cells.
func Table2(cfg Config) ([]Table2Row, error) {
	variants := onlyConfigs()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)

	var jobs []pool.Job[int64]
	var keys []table2Key
	falseShare := func(st *cache.Stats) int64 { return st.FalseShare }
	for _, b := range workload.Unoptimizable() {
		for _, blk := range cfg.Table2Blocks {
			for _, variant := range append([]string{"N"}, names...) {
				keys = append(keys, table2Key{prog: b.Name, block: blk, variant: variant})
				key := fmt.Sprintf("table2/%s/b%d/%s", b.Name, blk, variant)
				ver := VersionC
				if variant == "N" {
					ver = VersionN
				}
				// Attribution covers the reference and the fully
				// transformed variant; the single-transformation
				// ablations stay plain (their deltas are Table 2's
				// own columns).
				diag := cfg.Diag && (variant == "N" || variant == "all")
				jobs = append(jobs, missJob(cfg, key, b, ver, variants[variant], blk, diag, falseShare))
			}
		}
	}

	fsCounts, err := runJobs(cfg, "table2", nil, jobs)
	failed := failedKeys(err)
	fs := make(map[table2Key]int64, len(keys))
	have := make(map[table2Key]bool, len(keys))
	for i, k := range keys {
		if failed[jobs[i].Key] {
			continue
		}
		fs[k] = fsCounts[i]
		have[k] = true
	}

	var rows []Table2Row
	for _, b := range workload.Unoptimizable() {
		row := Table2Row{Program: b.Name}
		reductions := map[string][]float64{}
		usable := 0
		for _, blk := range cfg.Table2Blocks {
			nKey := table2Key{prog: b.Name, block: blk, variant: "N"}
			if !have[nKey] {
				continue // reference measurement failed
			}
			complete := true
			for _, name := range names {
				if !have[table2Key{prog: b.Name, block: blk, variant: name}] {
					complete = false
					break
				}
			}
			if !complete {
				continue // a variant failed: the block can't be attributed
			}
			usable++
			fsN := fs[nKey]
			if fsN == 0 {
				continue // no false sharing at this block size
			}
			for _, name := range names {
				red := 1 - float64(fs[table2Key{prog: b.Name, block: blk, variant: name}])/float64(fsN)
				if red < 0 {
					red = 0
				}
				reductions[name] = append(reductions[name], red)
			}
		}
		if usable == 0 && err != nil {
			continue // every block size of this program lost a cell
		}
		row.Total = 100 * mean(reductions["all"])
		row.GroupTranspose = 100 * mean(reductions["gt"])
		row.Indirection = 100 * mean(reductions["ind"])
		row.PadAlign = 100 * mean(reductions["pad"])
		row.Locks = 100 * mean(reductions["locks"])
		rows = append(rows, row)
	}
	return rows, partial(err, len(jobs))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RenderTable2 formats the rows like the paper's Table 2.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: false-sharing miss reduction by transformation (avg over 8-256 byte blocks)\n")
	sb.WriteString(fmt.Sprintf("%-11s %8s | %10s %11s %10s %6s\n",
		"program", "total%", "grp&trans%", "indirection%", "pad&align%", "locks%"))
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-11s %8.1f | %10.1f %11.1f %10.1f %6.1f\n",
			r.Program, r.Total, r.GroupTranspose, r.Indirection, r.PadAlign, r.Locks))
	}
	return sb.String()
}
