package experiments

import (
	"fmt"
	"strings"

	"falseshare/internal/experiments/pool"
	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// Aggregates holds the Section 1/5 headline numbers at one block
// size, summed over the unoptimizable programs.
type Aggregates struct {
	Block int64

	// FSFractionOfMisses: in the unoptimized programs, the fraction
	// of all cache misses that are false-sharing misses (paper, 128B:
	// ~70%).
	FSFractionOfMisses float64
	// FSEliminated: fraction of false-sharing misses the
	// transformations remove (paper: ~80%).
	FSEliminated float64
	// OtherIncrease: relative increase in non-false-sharing misses
	// (paper: ~19%).
	OtherIncrease float64
	// TotalMissReduction: relative reduction in total misses (paper:
	// about half).
	TotalMissReduction float64
}

// aggCell is one program version's miss split for the aggregates.
// The fields are exported so a cell survives the JSON round trip
// through the cell store.
type aggCell struct {
	Prog  string  `json:"prog"`
	Ver   Version `json:"ver"`
	FS    int64   `json:"fs"`
	Other int64   `json:"other"`
}

// aggBlock is the block size of the aggregate numbers: 128 bytes, the
// block the paper quotes them at.
const aggBlock = 128

// ComputeAggregates derives the headline numbers from fresh runs at
// 128-byte blocks. Each (program × version) run is one job, fanned out
// across cfg.Workers; the sums are accumulated after the fan-out.
//
// The aggregates compare each program's N and C runs, so when either
// version of a program fails (and cfg.Policy keeps going) both its
// cells are excluded from the sums — a one-sided contribution would
// bias every headline number — and the pool's *pool.MultiError names
// the failures.
func ComputeAggregates(cfg Config) (*Aggregates, error) {
	// The aggregates never attribute misses: -diag stays out of their
	// cell addresses.
	cfg.Diag = false
	var jobs []pool.Job[aggCell]
	for _, b := range workload.Unoptimizable() {
		for _, ver := range []Version{VersionN, VersionC} {
			key := fmt.Sprintf("aggregates/%s/%s", b.Name, ver)
			jobs = append(jobs, missJob(cfg, key, b, ver, transform.Config{}, aggBlock, false, func(st *cache.Stats) aggCell {
				return aggCell{Prog: b.Name, Ver: ver, FS: st.FalseShare, Other: st.Misses() - st.FalseShare}
			}))
		}
	}
	cells, err := runJobs(cfg, "aggregates", nil, jobs)
	failed := failedKeys(err)
	excluded := map[string]bool{}
	for _, j := range jobs {
		if failed[j.Key] {
			// Exclude the whole program, both versions.
			excluded[progOfAggKey(j.Key)] = true
		}
	}
	if err != nil && len(excluded) == len(workload.Unoptimizable()) {
		return nil, err
	}

	var fsN, otherN, fsC, otherC int64
	for i, c := range cells {
		if failed[jobs[i].Key] || excluded[c.Prog] {
			continue
		}
		if c.Ver == VersionN {
			fsN += c.FS
			otherN += c.Other
		} else {
			fsC += c.FS
			otherC += c.Other
		}
	}
	a := &Aggregates{Block: aggBlock}
	if fsN+otherN > 0 {
		a.FSFractionOfMisses = float64(fsN) / float64(fsN+otherN)
	}
	if fsN > 0 {
		a.FSEliminated = 1 - float64(fsC)/float64(fsN)
	}
	if otherN > 0 {
		a.OtherIncrease = float64(otherC)/float64(otherN) - 1
	}
	if fsN+otherN > 0 {
		a.TotalMissReduction = 1 - float64(fsC+otherC)/float64(fsN+otherN)
	}
	return a, err
}

// progOfAggKey extracts the program name from an "aggregates/<prog>/<ver>"
// job key.
func progOfAggKey(key string) string {
	parts := strings.Split(key, "/")
	if len(parts) >= 2 {
		return parts[1]
	}
	return key
}

// Render formats the aggregates against the paper's claims.
func (a *Aggregates) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Aggregate results at %d-byte blocks (paper values at 128B in parentheses):\n", a.Block)
	fmt.Fprintf(&sb, "  false sharing as fraction of all misses (unoptimized): %5.1f%%  (paper: ~70%%)\n", 100*a.FSFractionOfMisses)
	fmt.Fprintf(&sb, "  false-sharing misses eliminated:                        %5.1f%%  (paper: ~80%%)\n", 100*a.FSEliminated)
	fmt.Fprintf(&sb, "  increase in other misses:                               %5.1f%%  (paper: ~19%%)\n", 100*a.OtherIncrease)
	fmt.Fprintf(&sb, "  total miss reduction:                                   %5.1f%%  (paper: ~50%%)\n", 100*a.TotalMissReduction)
	return sb.String()
}
