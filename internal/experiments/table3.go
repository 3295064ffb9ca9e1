package experiments

import (
	"fmt"
	"strings"

	"falseshare/internal/sim/ksr"
	"falseshare/internal/workload"
)

// Table3Row is one row of Table 3: the maximum speedup of each
// available version and the processor count where it occurs.
type Table3Row struct {
	Program string
	// Max[ver] and At[ver] hold the maximum speedup and its processor
	// count; versions absent from the program are missing from the
	// maps.
	Max map[Version]float64
	At  map[Version]int
	// Curves keeps the underlying data for plotting and tests.
	Curves []Curve
}

// Table3 regenerates the paper's Table 3 across the whole suite. The
// sweeps of all ten programs fan out through one job pool.
//
// When some sweep jobs fail (and cfg.Policy keeps going), programs
// whose sweeps completed still get rows; a program missing any sweep
// point is dropped (its maxima would be bogus) and reported through
// the pool's *pool.MultiError.
func Table3(cfg Config, machine ksr.Config) ([]Table3Row, error) {
	benches := workload.All()
	perBench, err := benchCurves("table3", benches, cfg, machine)
	if err != nil && perBench == nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	var rows []Table3Row
	for i, b := range benches {
		curves := perBench[i]
		if curves == nil {
			continue // this benchmark lost a sweep job
		}
		row := Table3Row{
			Program: b.Name,
			Max:     map[Version]float64{},
			At:      map[Version]int{},
			Curves:  curves,
		}
		for _, c := range curves {
			row.Max[c.Version] = c.MaxSpeed
			row.At[c.Version] = c.MaxAt
		}
		rows = append(rows, row)
	}
	return rows, err
}

// RenderTable3 formats the rows like the paper's Table 3.
func RenderTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3: maximum speedups (processors at maximum)\n")
	sb.WriteString(fmt.Sprintf("%-11s %12s %12s %12s\n", "program", "original", "compiler", "programmer"))
	cell := func(r Table3Row, v Version) string {
		if _, ok := r.Max[v]; !ok {
			return ""
		}
		return fmt.Sprintf("%.1f (%d)", r.Max[v], r.At[v])
	}
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%-11s %12s %12s %12s\n",
			r.Program, cell(r, VersionN), cell(r, VersionC), cell(r, VersionP)))
	}
	return sb.String()
}
