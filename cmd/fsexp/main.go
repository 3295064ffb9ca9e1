// Command fsexp regenerates the paper's evaluation (Table 1, Figure 3,
// Table 2, Figure 4, Table 3, the Section 1/5 aggregates), the §3.1
// compile-cost check and the protocol matrix: one flag per entry of
// experiments.Sections, run and printed in the table's order.
//
// Usage:
//
//	fsexp -fig3 -table2 -fig4 -table3 -aggregates    # pick any subset
//	fsexp -all                                        # all but -matrix
//	fsexp -all -j 8                                   # 8 parallel jobs
//	fsexp -all -quick                                 # reduced sweeps
//	fsexp -all -scale-min -j 4                        # smoke-test config
//	fsexp -all -reportdir runs/                       # one JSON manifest
//	                                                  # per figure/table
//	fsexp -all -cache runs/cells                      # store cells; a
//	                                                  # re-run resumes
//	fsexp -all -keep-going                            # render what
//	                                                  # survives failures
//
// Every figure and table is regenerated from independent
// compile→run→simulate jobs fanned out over -j workers (default:
// GOMAXPROCS). Results are identical at any -j; -j 1 preserves the
// serial execution order exactly.
//
// Fault tolerance: Ctrl-C (or SIGTERM) cancels the run cooperatively —
// cells in flight stop at their next cancellation check, finished
// cells stay stored when -cache is set, and a second interrupt exits
// immediately. -job-timeout bounds each cell, -step-budget caps VM
// instructions so a runaway program fails instead of hanging. A
// failed cell fails the same way on every attempt, since the
// simulation is deterministic: by default the first failure stops the
// run, -keep-going renders what survives, and a re-run with -cache
// runs only the cells that did not finish. A failed run exits 1, an
// interrupted one 130. -faults (or the FSEXP_FAULTS environment
// variable) injects deterministic faults for testing; see
// internal/faultinject. Out-of-range numbers (-scale, -matrix-workloads
// or -matrix-procs below 1, -matrix-procs above the generated
// programs' 64 processes, a -matrix-block that is not a power of two
// or that the 32 KB cache cannot hold) fail before any cell runs.
//
// The cell store: -cache dir keeps every finished cell — result, span
// subtree, -verify/-diag events — in a crash-safe content-addressed
// store. A cell's address is its key, the run's settings (scale,
// budget, -verify, -diag, the KSR machine or -matrix options) and the
// sha256 of the fsexp binary that computed it. Any later run of the
// same build over the same cells replays them instead of recomputing:
// that is how an interrupted run resumes, and how overlapping runs
// dedup. A changed setting or a rebuilt binary changes the address, so
// a cell is never replayed into a run it does not belong to; a stored
// cell that no longer decodes is recomputed and overwritten, and
// -compilecost timings are never stored.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/workload/gen"
)

func main() {
	// One flag per section of the table.
	selected := map[string]*bool{}
	for _, s := range experiments.Sections {
		selected[s.Name] = flag.Bool(s.Name, false, s.Help)
	}
	var (
		all   = flag.Bool("all", false, "regenerate every section except -matrix")
		quick = flag.Bool("quick", false, "smaller processor sweeps (faster)")
		csv   = flag.Bool("csv", false, "emit CSV instead of formatted tables (fig3, table2, fig4, matrix)")
		scale = flag.Int("scale", 1, "workload scale")
		jobs  = flag.Int("j", runtime.GOMAXPROCS(0), "parallel experiment jobs (1 = serial)")

		scaleMin = flag.Bool("scale-min", false, "minimal sweeps and block sets (CI smoke runs)")

		matrixWorkloads = flag.Int("matrix-workloads", 60, "generated workload population for -matrix")
		matrixSeed      = flag.Int64("matrix-seed", 1, "generator corpus seed for -matrix")
		matrixProcs     = flag.Int("matrix-procs", 8, "processor count for -matrix cells")
		matrixBlock     = flag.Int64("matrix-block", 64, "block size for -matrix cells")
		protocols       = flag.String("protocols", "", "comma-separated protocol subset for -matrix (default: all)")
		topologies      = flag.String("topologies", "", "comma-separated topology subset for -matrix (default: all)")

		cacheDir   = flag.String("cache", "", "cell store directory: finished cells are stored there, and a run of the same build replays every cell already stored (resume, and dedup across runs)")
		cacheBytes = flag.Int64("cache-bytes", 0, "LRU byte budget for -cache: least-recently-used entries are evicted past this size (0 = unlimited)")

		keepGoing  = flag.Bool("keep-going", false, "keep running after cell failures and render partial figures/tables (default: fail fast)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-cell deadline, e.g. 90s (0 = none)")
		stepBudget = flag.Int64("step-budget", 0, "per-process VM instruction cap (0 = the VM default of 1e9)")
		verifyRuns = flag.Bool("verify", false, "translation-validate every compiler-restructured cell; failing objects degrade to the identity layout and are reported")
		diagRuns   = flag.Bool("diag", false, "attribute misses to objects in every fig3/table2 cell and print which objects' false sharing each transformation eliminated")
		faults     = flag.String("faults", "", "deterministic fault-injection spec (testing; see internal/faultinject)")

		reportDir = flag.String("reportdir", "", "write one JSON run manifest per figure/table into this directory")
		verbose   = flag.Bool("v", false, "log experiment progress to stderr")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	// The selected sections, in table order: each one flagged, and
	// under -all each one the table marks for it.
	var sections []experiments.Section
	for _, s := range experiments.Sections {
		if *selected[s.Name] || *all && s.All {
			sections = append(sections, s)
		}
	}
	if len(sections) == 0 {
		flag.PrintDefaults()
		os.Exit(2)
	}

	stop, err := obs.StartProfiles(*cpuprof, *memprof)
	check(err)
	stopProfiles = stop
	if *verbose {
		rec := obs.NewRecorder()
		rec.Verbose = true
		obs.Install(rec)
	}

	check(faultinject.Setup(*faults, "FSEXP_FAULTS"))

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Workers = *jobs
	cfg.StepBudget = *stepBudget
	cfg.Verify = *verifyRuns
	cfg.Diag = *diagRuns
	events := &experiments.CellEvents{}
	cfg.Events = events
	cfg.Policy = pool.Policy{
		FailFast:   !*keepGoing,
		JobTimeout: *jobTimeout,
	}
	if *quick {
		cfg.SweepCounts = []int{1, 2, 4, 8, 12, 16, 20, 28}
		cfg.Table2Blocks = []int64{16, 64, 128, 256}
	}
	if *scaleMin {
		cfg.SweepCounts = []int{1, 2, 4}
		cfg.Table2Blocks = []int64{32, 128}
		cfg.Fig3Blocks = []int64{16, 128}
	}

	// Numeric settings and the -matrix axes are checked up front so a
	// typo fails before any cell runs; -scale-min shrinks the
	// generated programs, never the population (the matrix's value is
	// breadth).
	check(checkNumbers(*scale, *matrixWorkloads, *matrixProcs, *matrixBlock))
	set := experiments.SectionSet{Machine: ksr.DefaultConfig(), Matrix: experiments.MatrixOptions{
		Workloads: *matrixWorkloads,
		Seed:      *matrixSeed,
		Procs:     *matrixProcs,
		Block:     *matrixBlock,
		ScaleMin:  *scaleMin,
	}}
	if *protocols != "" {
		for _, s := range splitList(*protocols) {
			p, err := cache.ParseProtocol(s)
			check(err)
			set.Matrix.Protocols = append(set.Matrix.Protocols, p)
		}
	}
	if *topologies != "" {
		for _, s := range splitList(*topologies) {
			tp, err := cache.ParseTopology(s)
			check(err)
			set.Matrix.Topologies = append(set.Matrix.Topologies, tp)
		}
	}

	// First interrupt: cancel the run cooperatively — cells in flight
	// stop at their next check, the store index and any partial
	// manifests are flushed on the way out. Second interrupt: exit
	// immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One measurement memo for the whole run: a cell whose program
	// another section already measured under the same configuration
	// (Table 3 repeating Figure 4's sweeps, Table 2 and the aggregates
	// repeating Figure 3's cells) takes that result.
	cfg.Ctx = experiments.WithMeasureMemo(ctx)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fsexp: interrupt — draining (interrupt again to exit immediately)")
		cancel()
		<-sigc
		exit(130)
	}()

	// The cell store, opened (and recovered) before any cell runs.
	var store *artifact.Store
	if *cacheDir != "" {
		store, err = artifact.Open(*cacheDir, artifact.Options{MaxBytes: *cacheBytes, FaultPoint: "cell.store"})
		check(err)
		cfg.Store = store
	}
	// closeStore prints the store's counters and flushes its index.
	// Every exit path calls it; only the first call acts.
	closeStore := func() {
		if store == nil {
			return
		}
		c := store.Counters()
		fmt.Fprintf(os.Stderr, "fsexp: cache hits=%d misses=%d corrupt=%d evicted=%d\n", c.Hits, c.Misses, c.CorruptDropped, c.Evictions)
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "fsexp: cache: %v\n", err)
		}
		store = nil
	}

	// failSections collects per-experiment partial-failure reports; they
	// are printed after every rendered figure/table, and make the run
	// exit nonzero.
	var failSections []string
	interrupted := false

	// fatal ends the run on an experiment error: store flushed, resume
	// hint printed, exit code 130 for a run the signal handler
	// cancelled and 1 otherwise. A fail-fast stop also leaves cells
	// cancelled, but only the handler cancels ctx itself.
	fatal := func(name string, err error) {
		closeStore()
		fmt.Fprintf(os.Stderr, "fsexp: %s: %v\n", name, err)
		code := 1
		if ctx.Err() != nil {
			code = 130
		}
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "fsexp: completed cells are stored; re-run with -cache %s to continue\n", *cacheDir)
		} else {
			fmt.Fprintln(os.Stderr, "fsexp: hint: run with -cache <dir> to make interrupted runs resumable")
		}
		exit(code)
	}

	// run executes one experiment. With -reportdir every run records
	// into its own manifest (stage spans plus the result rows) written
	// as <dir>/<name>.json — even for a failed or partial run, so an
	// interrupted invocation still leaves its manifests behind. With
	// -keep-going a failure of some cells (a *pool.MultiError) renders
	// whatever survived and the failed cell keys are reported (and
	// recorded in the manifest under "failed"); any other failure is
	// fatal.
	run := func(name string, fn func() (any, error)) any {
		var v any
		var err error
		var merr *pool.MultiError
		seenDegraded := len(events.Degraded)
		seenDiag := len(events.Diag)
		if *reportDir == "" {
			v, err = fn()
		} else {
			var rep *obs.Report
			rep, err = experiments.RunManifest("fsexp", name, experiments.ConfigMap(cfg), fn)
			if errors.As(err, &merr) {
				var keys []string
				for _, e := range merr.Errors {
					keys = append(keys, e.Key)
				}
				rep.AddData("failed", keys)
			}
			if len(events.Degraded) > seenDegraded {
				// Safe mode rolled objects back in this section: record
				// the cell keys and objects in the manifest.
				degraded := map[string][]string{}
				for _, e := range events.Degraded[seenDegraded:] {
					degraded[e.Key] = e.Objects
				}
				rep.AddData("degraded", degraded)
			}
			if len(events.Diag) > seenDiag {
				// Miss attribution ran in this section: record each
				// cell's per-object report alongside the results, in
				// cell submission order.
				rep.AddData("attribution", events.Diag[seenDiag:])
			}
			path, werr := experiments.WriteManifest(*reportDir, name, rep)
			if werr != nil {
				fatal(name, werr)
			}
			if *verbose {
				fmt.Fprintf(os.Stderr, "fsexp: %s manifest -> %s\n", name, path)
			}
			v = rep.Data["result"]
		}
		if err != nil {
			if !errors.As(err, &merr) || !*keepGoing {
				fatal(name, err)
			}
			if ctx.Err() != nil {
				interrupted = true
			}
			section := fmt.Sprintf("%s: %d of %d cells failed:\n", name, len(merr.Errors), merr.Jobs)
			for _, e := range merr.Errors {
				section += "  " + e.Error() + "\n"
			}
			failSections = append(failSections, section)
		}
		return v
	}

	for _, s := range sections {
		v := run(s.Name, func() (any, error) { return s.Run(cfg, set) })
		fmt.Print(s.Print(v, *csv))
	}

	// Aggregate diagnosis: pair each section's unoptimized and
	// transformed attribution cells and show, per applied decision,
	// the false-sharing misses the transformation eliminated.
	if *diagRuns && len(events.Diag) > 0 {
		fmt.Println(experiments.RenderDiag(events.Diag))
	}

	// Safe-mode summary (stderr, so stdout tables stay stable): which
	// cells finished with degraded objects, and the overall count.
	if *verifyRuns {
		ev := append([]experiments.DegradeEvent(nil), events.Degraded...)
		sort.SliceStable(ev, func(i, j int) bool { return ev[i].Key < ev[j].Key })
		for _, e := range ev {
			fmt.Fprintf(os.Stderr, "fsexp: degraded %s: %v\n", e.Key, e.Objects)
		}
		fmt.Fprintf(os.Stderr, "fsexp: verify: %d objects degraded\n", experiments.DegradedObjects(events.Degraded))
	}

	closeStore()
	check(stopProfiles())

	if len(failSections) > 0 {
		fmt.Println("Failed cells:")
		for _, s := range failSections {
			fmt.Print(s)
		}
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "fsexp: completed cells are stored; re-run with -cache %s to retry only the failed ones\n", *cacheDir)
		}
		if interrupted {
			exit(130)
		}
		exit(1)
	}
}

// stopProfiles ends -cpuprofile and writes -memprofile. Every exit
// path calls it, the interrupt handler's included; only the first
// call acts.
var stopProfiles = func() error { return nil }

// exit stops the profiles and exits with code.
func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "fsexp: %v\n", err)
	}
	os.Exit(code)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsexp: %v\n", err)
		exit(1)
	}
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// checkNumbers rejects the numeric settings no run can use: a scale,
// matrix population or matrix processor count below 1, a matrix
// processor count above what the generated programs declare, and a
// matrix block that the cells' simulated cache rejects.
func checkNumbers(scale, workloads, procs int, block int64) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"-scale", scale}, {"-matrix-workloads", workloads}, {"-matrix-procs", procs}} {
		if f.v < 1 {
			return fmt.Errorf("%s must be at least 1 (got %d)", f.name, f.v)
		}
	}
	if procs > gen.MaxProcs {
		return fmt.Errorf("-matrix-procs must be at most %d, the generated programs' process limit (got %d)", gen.MaxProcs, procs)
	}
	if err := cache.DefaultConfig(procs, block).Validate(); err != nil {
		return fmt.Errorf("-matrix-block must be a block size the matrix's cache can simulate (got %d): %v", block, err)
	}
	return nil
}
