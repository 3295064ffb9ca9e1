package experiments

// Section is one experiment fsexp regenerates: a table or figure of
// the paper's evaluation, the §1/§5 aggregates, the compile-cost check
// or the protocol matrix.
type Section struct {
	Name string // its fsexp flag, and the name of its -reportdir manifest
	Help string // the flag's usage text
	All  bool   // whether fsexp -all selects it
	// Run computes the section under cfg; set carries what Config does
	// not (the KSR machine, the matrix options). When cells fail and
	// cfg.Policy keeps going, it returns what survived with the pool's
	// *pool.MultiError.
	Run func(cfg Config, set SectionSet) (any, error)
	// Print renders Run's result, partial or not, as fsexp prints it.
	Print func(result any, csv bool) string
}

// Sections is the only list of sections, in the order fsexp runs and
// prints them. fsexp declares one flag per entry and expands -all from
// it; Collect and the cmd/fsexp goldens look section names up in it.
var Sections = []Section{
	{"table1", "print Table 1 (the benchmark suite)", true,
		func(Config, SectionSet) (any, error) { return Table1(), nil }, printer(RenderTable1, nil)},
	{"fig3", "regenerate Figure 3 (miss-rate bars)", true,
		func(cfg Config, _ SectionSet) (any, error) { return Figure3(cfg) }, printer(RenderFigure3, csvFigure3)},
	{"aggregates", "regenerate the §1/§5 aggregate numbers", true,
		func(cfg Config, _ SectionSet) (any, error) { return ComputeAggregates(cfg) }, printer((*Aggregates).Render, nil)},
	{"table2", "regenerate Table 2 (FS reduction by transformation)", true,
		func(cfg Config, _ SectionSet) (any, error) { return Table2(cfg) }, printer(RenderTable2, csvTable2)},
	{"fig4", "regenerate Figure 4 (speedup curves)", true,
		func(cfg Config, set SectionSet) (any, error) { return Figure4(cfg, set.Machine) }, printFigure4},
	{"table3", "regenerate Table 3 (maximum speedups)", true,
		func(cfg Config, set SectionSet) (any, error) { return Table3(cfg, set.Machine) }, printer(RenderTable3, nil)},
	{"compilecost", "measure front-end vs restructuring time (§3.1 claim)", true,
		func(cfg Config, _ SectionSet) (any, error) { return CompileCost(cfg) }, printer(RenderCompileCost, nil)},
	{"matrix", "sweep generated workloads across every coherence protocol and topology", false,
		func(cfg Config, set SectionSet) (any, error) { return Matrix(cfg, set.Matrix) }, printer(RenderMatrix, csvMatrix)},
}

// printer adapts a section's typed renderers to Print: text followed
// by a blank line, or under -csv the rows from csv where the section
// has a CSV form (csv non-nil).
func printer[T any](text, csv func(T) string) func(any, bool) string {
	return func(v any, asCSV bool) string {
		if asCSV && csv != nil {
			return csv(v.(T))
		}
		return text(v.(T)) + "\n"
	}
}
