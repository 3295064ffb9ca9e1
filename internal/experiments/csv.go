package experiments

import (
	"fmt"
	"strings"
)

// csvFigure3 renders Figure 3 cells as CSV for external plotting.
func csvFigure3(cells []Fig3Cell) string {
	var sb strings.Builder
	sb.WriteString("program,version,block,procs,refs,fs_misses,other_misses,fs_rate_pct,other_rate_pct\n")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%s,%s,%d,%d,%d,%d,%d,%.4f,%.4f\n",
			c.Program, c.Version, c.Block, c.Procs, c.Refs, c.FSMisses, c.OtherMisses, c.FSRate, c.OtherRate)
	}
	return sb.String()
}

// csvTable2 renders Table 2 rows as CSV.
func csvTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("program,total_pct,group_transpose_pct,indirection_pct,pad_align_pct,locks_pct\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			r.Program, r.Total, r.GroupTranspose, r.Indirection, r.PadAlign, r.Locks)
	}
	return sb.String()
}
