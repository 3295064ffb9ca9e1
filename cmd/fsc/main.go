// Command fsc is the false-sharing restructurer front end: it runs
// the full compile-time analysis on a parc source file, reports the
// transformation decisions, and prints the restructured program.
//
// Usage:
//
//	fsc [-p N] [-b BLOCK] [-summary] [-pdv] [-plan] [-src] file.parc
//	fsc -bench NAME ...      # use a bundled benchmark as input
//	fsc -bench NAME -report run.json -v    # machine-readable manifest
//	fsc -bench NAME -diag    # simulate both versions, attribute the FS delta
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/workload"
)

func main() {
	var (
		nprocs  = flag.Int("p", 12, "number of processes/processors assumed by the analysis")
		block   = flag.Int64("b", 128, "coherence block size in bytes")
		bench   = flag.String("bench", "", "analyze a bundled benchmark (maxflow, pverify, ...) instead of a file")
		scale   = flag.Int("scale", 1, "workload scale for -bench")
		summary = flag.Bool("summary", false, "print the side-effect summary")
		pdv     = flag.Bool("pdv", false, "print discovered PDVs")
		plan    = flag.Bool("plan", true, "print the transformation plan")
		src     = flag.Bool("src", false, "print the transformed source")
		verify  = flag.Bool("verify", false, "translation-validate the transformed program against the original (safe mode: failing objects degrade to the identity layout)")
		diag    = flag.Bool("diag", false, "simulate both versions at -b and attribute the false-sharing delta to the applied decisions")

		faults  = flag.String("faults", "", "deterministic fault-injection spec (testing; e.g. transform.corrupt:error to seed a miscompile -verify must catch)")
		report  = flag.String("report", "", "write a JSON run manifest (per-stage timings and counters) to this file")
		verbose = flag.Bool("v", false, "log pipeline progress to stderr")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	stop, err := obs.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop

	var rec *obs.Recorder
	if *report != "" || *verbose {
		rec = obs.NewRecorder()
		rec.Verbose = *verbose
		obs.Install(rec)
	}

	if err := faultinject.Setup(*faults, ""); err != nil {
		fatal(err)
	}

	var source string
	switch {
	case *bench != "":
		b := workload.Get(*bench)
		if b == nil {
			fmt.Fprintf(os.Stderr, "fsc: unknown benchmark %q (choose from: %s)\n",
				*bench, strings.Join(workload.Names(), ", "))
			exit(1)
		}
		source = b.Source(*scale)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		source = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: fsc [flags] file.parc | fsc -bench NAME")
		flag.PrintDefaults()
		exit(2)
	}

	res, err := core.Restructure(source, core.Options{Nprocs: *nprocs, BlockSize: *block, Verify: *verify})
	if err != nil {
		fatal(err)
	}

	if *pdv {
		fmt.Println("--- process differentiating variables ---")
		fmt.Print(res.PDVs.String())
	}
	if *summary {
		fmt.Println("--- per-process side-effect summary ---")
		fmt.Print(res.Summary.String())
	}
	if *plan {
		fmt.Println("--- transformation plan ---")
		fmt.Print(res.Plan.String())
		fmt.Println("--- layout directives ---")
		fmt.Print(res.Transformed.Dirs.String())
	}
	if *src {
		fmt.Println("--- transformed program ---")
		fmt.Print(res.Transformed.Source)
	}
	if *verify {
		fmt.Println("--- translation validation ---")
		if res.Verify != nil {
			fmt.Print(res.Verify)
		}
		if len(res.Degraded) > 0 {
			fmt.Printf("%d object(s) degraded to the identity layout:\n", len(res.Degraded))
			for _, d := range res.Degraded {
				fmt.Printf("  %s\n", d)
			}
		} else {
			fmt.Println("0 objects degraded")
		}
	}

	// The diagnosis closes the loop on the plan above: it executes both
	// programs through the simulator with miss attribution installed
	// and shows which objects' false-sharing misses each decision
	// actually eliminated.
	if *diag {
		ctx := context.Background()
		name := *bench
		if name == "" {
			name = flag.Arg(0)
		}
		ccfg := cache.DefaultConfig(*nprocs, *block)
		_, before, err := experiments.MeasureConfigAttr(ctx, res.Original, ccfg, 0)
		if err != nil {
			fatal(fmt.Errorf("diagnose original: %w", err))
		}
		_, after, err := experiments.MeasureConfigAttr(ctx, res.Transformed, ccfg, 0)
		if err != nil {
			fatal(fmt.Errorf("diagnose transformed: %w", err))
		}
		fmt.Println("--- miss attribution: original ---")
		fmt.Print(before.Render())
		fmt.Println("--- miss attribution: transformed ---")
		fmt.Print(after.Render())
		fmt.Println("--- diagnosis ---")
		fmt.Print(experiments.RenderDiagPair(name, *block, before, after, res.Applied))
	}

	if *report != "" {
		rep := rec.Report("fsc")
		rep.Config = map[string]any{
			"nprocs": *nprocs,
			"block":  *block,
			"bench":  *bench,
			"scale":  *scale,
		}
		decisions := make([]string, 0, len(res.Plan.Decisions))
		for _, d := range res.Plan.Decisions {
			decisions = append(decisions, d.String())
		}
		rep.AddData("decisions", decisions)
		rep.AddData("skipped", res.Plan.Skipped)
		rep.AddData("applied", len(res.Applied))
		if *verify {
			degraded := make([]string, 0, len(res.Degraded))
			for _, d := range res.Degraded {
				degraded = append(degraded, d.String())
			}
			rep.AddData("degraded", degraded)
			if res.Verify != nil {
				rep.AddData("verify_ok", res.Verify.OK)
				rep.AddData("verify_objects", len(res.Verify.Objects))
			}
		}
		if err := rep.WriteFile(*report); err != nil {
			fatal(err)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "fsc: report -> %s\n", *report)
		}
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

// stopProfiles ends -cpuprofile and writes -memprofile. Every exit
// path calls it; only the first call acts.
var stopProfiles = func() error { return nil }

// exit stops the profiles and exits with code.
func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "fsc: %v\n", err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fsc: %v\n", err)
	exit(1)
}
