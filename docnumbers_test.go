package falseshare

import (
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// measuredValue matches one measured number as EXPERIMENTS.md and the
// fsexp output print it: "86.9%", "0.0", "6.0 (32)", "10.49(32)". It
// captures the number, its decimals and the processor count.
var measuredValue = regexp.MustCompile(`^(\d+(?:\.(\d+))?)%?\s*(?:\((\d+)\))?$`)

// agree reports whether doc, a value EXPERIMENTS.md prints, stands for
// gold, the golden's: within half a unit of doc's last digit, with the
// same processor count.
func agree(doc, gold string) bool {
	d, g := measuredValue.FindStringSubmatch(doc), measuredValue.FindStringSubmatch(gold)
	if d == nil || g == nil || d[3] != g[3] {
		return false
	}
	dv, _ := strconv.ParseFloat(d[1], 64)
	gv, _ := strconv.ParseFloat(g[1], 64)
	return math.Abs(dv-gv) <= 0.5*math.Pow(10, -float64(len(d[2])))*(1+1e-9)
}

// goldenNumbers reads the measured values of fsexp's paper output into
// a map keyed like "fig3/maxflow/N/16/fs", "table2/pverify/ind" or
// "table3/mp3d/C". A version a program lacks has no key.
func goldenNumbers(text string) map[string]string {
	sections := map[string]string{"Table 1": "", "Figure 3": "fig3", "Table 2": "table2", "Figure 4": "fig4", "Table 3": "table3"}
	vals := map[string]string{}
	section, prog, aggregates := "", "", 0
	var versions []string
	for _, line := range strings.Split(text, "\n") {
		if name, _, ok := strings.Cut(line, ":"); ok && !strings.HasPrefix(line, " ") {
			if s, ok := sections[name]; ok {
				section = s
				continue
			}
			if strings.HasPrefix(name, "Aggregate results") {
				section = "aggregates"
				continue
			}
			prog = name // a Figure 4 block: "fmm: speedup vs processors"
		}
		f := strings.Fields(line)
		switch {
		case section == "aggregates" && len(f) > 1:
			_, v, _ := strings.Cut(line, ":")
			vals["aggregates/"+strconv.Itoa(aggregates)] = strings.Fields(v)[0]
			aggregates++
		case section == "fig3" && len(f) >= 8 && f[4] == "|":
			vals["fig3/"+f[0]+"/"+f[1]+"/"+f[2]+"/fs"] = f[5]
			vals["fig3/"+f[0]+"/"+f[1]+"/"+f[2]+"/other"] = f[6]
		case section == "table2" && len(f) == 7 && f[2] == "|":
			vals["table2/"+f[0]+"/total"] = f[1]
			for i, share := range []string{"G&T", "ind", "pad", "locks"} {
				vals["table2/"+f[0]+"/"+share] = f[3+i]
			}
		case section == "fig4" && len(f) > 1 && f[0] == "procs":
			versions = f[1:]
		case section == "fig4" && len(f) > 1 && f[0] == "max":
			for i, v := range f[1:] {
				vals["fig4/"+prog+"/"+versions[i]] = v
			}
		case section == "table3" && len(f) > 0 && f[0] != "program":
			// "%-11s %12s %12s %12s": a blank cell is a version the
			// program lacks.
			line += strings.Repeat(" ", 50)
			for i, ver := range []string{"N", "C", "P"} {
				if cell := strings.TrimSpace(line[12+13*i : 24+13*i]); cell != "" {
					vals["table3/"+f[0]+"/"+ver] = cell
				}
			}
		}
	}
	return vals
}

// docTable returns the body rows of the first Markdown table under the
// EXPERIMENTS.md heading that starts with heading, each row's cells
// trimmed.
func docTable(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	_, body, ok := strings.Cut(doc, "\n## "+heading)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no section %q", heading)
	}
	body, _, _ = strings.Cut(body, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 3 {
		t.Fatalf("EXPERIMENTS.md %q: no table rows", heading)
	}
	return rows[2:] // past the header and its rule
}

// tableShare matches one named share in Table 2's "Measured dominant"
// column, e.g. "pad 59.3" or "G&T 100.0".
var tableShare = regexp.MustCompile(`(G&T|ind|pad|locks) (\d+\.\d+)`)

// TestExperimentsMatchGolden checks EXPERIMENTS.md's measured columns
// against cmd/fsexp/testdata/paper.golden, the pinned output of the
// paper configuration: the aggregates, Figure 3's rates, Table 2's
// totals and named shares, and the Figure 4 and Table 3 maxima. A
// change that moves a number must change the document with the golden.
func TestExperimentsMatchGolden(t *testing.T) {
	b, err := os.ReadFile("cmd/fsexp/testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	gold := goldenNumbers(string(b))
	b, err = os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	checked := 0
	check := func(key, docValue string) {
		t.Helper()
		checked++
		g, ok := gold[key]
		if docValue == "—" {
			if ok {
				t.Errorf("EXPERIMENTS.md has no %s; paper.golden reads %q", key, g)
			}
			return
		}
		if !agree(docValue, g) {
			t.Errorf("EXPERIMENTS.md %s reads %q; paper.golden reads %q", key, docValue, g)
		}
	}
	for i, row := range docTable(t, doc, "Section 1/5 aggregate claims") {
		check("aggregates/"+strconv.Itoa(i), row[2])
	}
	for _, row := range docTable(t, doc, "Figure 3") {
		for i, col := range []string{"N/16", "N/128", "C/128"} {
			fs, other, _ := strings.Cut(row[1+i], "/")
			check("fig3/"+row[0]+"/"+col+"/fs", strings.TrimSpace(fs))
			check("fig3/"+row[0]+"/"+col+"/other", strings.TrimSpace(other))
		}
	}
	for _, row := range docTable(t, doc, "Table 2") {
		prog := strings.ToLower(row[0])
		check("table2/"+prog+"/total", row[2])
		for _, m := range tableShare.FindAllStringSubmatch(row[4], -1) {
			check("table2/"+prog+"/"+m[1], m[2])
		}
	}
	for _, row := range docTable(t, doc, "Figure 4") {
		prog := strings.ToLower(strings.Fields(row[0])[0])
		for i, ver := range []string{"N", "C", "P"} {
			check("fig4/"+prog+"/"+ver, row[4+i])
		}
	}
	for _, row := range docTable(t, doc, "Table 3") {
		for i, ver := range []string{"N", "C", "P"} {
			check("table3/"+strings.ToLower(row[0])+"/"+ver, row[4+i])
		}
	}
	// 4 aggregates, 36 Figure 3 rates, 18 Table 2 values, 9 Figure 4
	// and 30 Table 3 maxima.
	if checked != 97 {
		t.Errorf("checked %d EXPERIMENTS.md values, want 97: a table lost rows or columns", checked)
	}
}
