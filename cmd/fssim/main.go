// Command fssim executes a parc program (or bundled benchmark) on the
// SPMD virtual machine and reports the multiprocessor cache
// simulation: miss rates broken down by class, per block size.
//
// Usage:
//
//	fssim [-p N] [-blocks 16,64,128] [-transformed] file.parc
//	fssim -bench pverify -transformed
//	fssim -bench mp3d -save-trace mp3d.trc     # store the reference trace
//	fssim -replay mp3d.trc -blocks 32,256      # re-simulate a stored trace
//	fssim -bench pverify -report run.json -v   # machine-readable manifest
//	fssim -bench maxflow -diag                 # attribute misses to objects
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/trace"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

func main() {
	var (
		nprocs      = flag.Int("p", 12, "number of processes")
		blockList   = flag.String("blocks", "16,64,128", "comma-separated block sizes to simulate")
		bench       = flag.String("bench", "", "run a bundled benchmark instead of a file")
		scale       = flag.Int("scale", 1, "workload scale for -bench")
		transformed = flag.Bool("transformed", false, "run the compiler-restructured version")
		saveTrace   = flag.String("save-trace", "", "also store the reference trace to this file (plus its address-map sidecar)")
		replay      = flag.String("replay", "", "simulate a stored trace instead of executing a program")
		diag        = flag.Bool("diag", false, "attribute misses to objects and fields; prints per-block false-sharing tables")
		statsJSON   = flag.String("stats-json", "", "write the full per-block cache statistics (including per-processor counters) as JSON to this file")

		protoFlag = flag.String("protocol", "write-invalidate", "coherence protocol: write-invalidate, mesi, or write-update")
		topoFlag  = flag.String("topology", "flat", "machine topology: flat or two-ring")
		ringSize  = flag.Int("ring-size", 0, "processors per ring for -topology two-ring (0 = the KSR default of 32)")
		sector    = flag.Int64("sector", 0, "invalidate in sectors of this many bytes instead of whole lines (0 = whole-line)")

		stepBudget = flag.Int64("step-budget", 0, "per-process VM instruction cap (0 = the VM default of 1e9)")
		faults     = flag.String("faults", "", "deterministic fault-injection spec (testing; see internal/faultinject)")

		report  = flag.String("report", "", "write a JSON run manifest (stage timings, per-block and per-processor stats) to this file")
		verbose = flag.Bool("v", false, "log pipeline and simulation progress to stderr")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	stop, err := obs.StartProfiles(*cpuprof, *memprof)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop

	if _, err := faultinject.Setup(*faults, "FSEXP_FAULTS"); err != nil {
		fatal(err)
	}

	// First interrupt: cancel the run — the VM stops at its next
	// scheduler poll and fssim exits 130. Second interrupt: exit
	// immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "fssim: interrupt — stopping (interrupt again to exit immediately)")
		cancel()
		<-sigc
		exit(130)
	}()

	var rec *obs.Recorder
	if *report != "" || *verbose {
		rec = obs.NewRecorder()
		rec.Verbose = *verbose
		obs.Install(rec)
	}

	// Protocol/topology/sector knobs apply to every simulator this run
	// builds; parse them before block validation so a bad combination
	// (write-update with sectors, say) is one clear message up front.
	proto, err := cache.ParseProtocol(*protoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fssim: %v\n", err)
		exit(2)
	}
	topo, err := cache.ParseTopology(*topoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fssim: %v\n", err)
		exit(2)
	}

	var blocks []int64
	var cfgs []cache.Config
	for _, s := range strings.Split(*blockList, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fssim: bad block size %q\n", s)
			exit(2)
		}
		cfg := cache.DefaultConfig(*nprocs, v)
		cfg.Protocol, cfg.Topology, cfg.RingSize, cfg.SectorSize = proto, topo, *ringSize, *sector
		// Validate each block against the simulator configuration it
		// will become, so a bad size (not a power of two, too small)
		// or knob combination is one clear message here instead of
		// garbage classifications. Two-ring defaults are filled by
		// cache.New, so validate through it.
		if _, verr := cache.New(cfg); verr != nil {
			fmt.Fprintf(os.Stderr, "fssim: %v\n", verr)
			exit(2)
		}
		blocks = append(blocks, v)
		cfgs = append(cfgs, cfg)
	}

	config := map[string]any{
		"nprocs": *nprocs, "blocks": blocks,
		"protocol": proto.String(), "topology": topo.String(),
	}
	var perBlock []experiments.BlockStats
	if *replay != "" {
		config["replay"] = *replay
		perBlock = replayTrace(ctx, *replay, *nprocs, cfgs, *diag)
	} else {
		config["bench"], config["scale"], config["transformed"] = *bench, *scale, *transformed
		perBlock = execute(ctx, *bench, *scale, *transformed, *nprocs, *stepBudget, cfgs, *saveTrace, *diag)
	}

	writeStatsJSON(*statsJSON, perBlock)
	writeReport(rec, *report, config, perBlock, *verbose)

	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

// replayTrace simulates a stored trace (the paper's methodology:
// simulate traces captured once) and prints its per-block statistics.
func replayTrace(ctx context.Context, path string, nprocs int, cfgs []cache.Config, diag bool) []experiments.BlockStats {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	// A stored trace is a bare reference stream; attribution needs
	// the address map the capturing run saved alongside it.
	var amap *attr.Map
	if diag {
		if amap, err = attr.LoadMap(trace.MapSidecar(path)); err != nil {
			fatal(fmt.Errorf("-diag needs the trace's address-map sidecar (re-capture with -save-trace to produce it): %w", err))
		}
	}
	tr := trace.NewReader(f)
	// The header declares the capture's process count, and the
	// Reader checks every record against it; checking it against
	// -p up front keeps every ref inside the simulators' counters.
	if n := tr.Nprocs(); n > nprocs {
		fatal(fmt.Errorf("trace %s was captured with %d processes; rerun with -p %d or more", path, n, n))
	}
	sp := obs.BeginCtx(ctx, "replay")
	stream := func(s trace.Sink) error { return tr.ForEachCtx(ctx, s) }
	stats, reports, err := experiments.SimulateStream(ctx, sp, stream, cfgs, amap)
	sp.End()
	if err != nil {
		fatal(err)
	}
	return printBlocks(stats, reports)
}

// execute compiles the program (a bundled benchmark, or the file
// argument) and runs it through the simulators. The unoptimized
// program is block-independent, so one execution feeds all
// simulators; the transformed program differs per block size (padding
// depends on the block), so each block executes its own.
func execute(ctx context.Context, bench string, scale int, transformed bool, nprocs int, budget int64, cfgs []cache.Config, saveTrace string, diag bool) []experiments.BlockStats {
	var source string
	switch {
	case bench != "":
		b := workload.Get(bench)
		if b == nil {
			fmt.Fprintf(os.Stderr, "fssim: unknown benchmark %q (choose from: %s)\n",
				bench, strings.Join(workload.Names(), ", "))
			exit(1)
		}
		source = b.Source(scale)
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		source = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: fssim [flags] file.parc | fssim -bench NAME")
		flag.PrintDefaults()
		exit(2)
	}

	if !transformed {
		prog, err := core.CompileCtx(ctx, source, core.Options{Nprocs: nprocs, BlockSize: cfgs[0].BlockSize})
		if err != nil {
			fatal(err)
		}
		return runAndReport(ctx, prog, nprocs, budget, cfgs, saveTrace, diag)
	}
	var perBlock []experiments.BlockStats
	for _, cfg := range cfgs {
		blk := cfg.BlockSize
		obs.LogfCtx(ctx, "restructuring for block %d", blk)
		res, err := core.RestructureCtx(ctx, source, core.Options{Nprocs: nprocs, BlockSize: blk})
		if err != nil {
			fatal(err)
		}
		// Each block's execution produces a distinct trace: write one
		// trace file per block rather than silently keeping only the
		// first.
		traceFile := ""
		if saveTrace != "" {
			traceFile = blockTraceName(saveTrace, blk, len(cfgs) > 1)
			if len(cfgs) > 1 {
				fmt.Printf("note: transformed traces differ per block; block %d -> %s\n", blk, traceFile)
			}
		}
		perBlock = append(perBlock, runAndReport(ctx, res.Transformed, nprocs, budget, []cache.Config{cfg}, traceFile, diag)...)
	}
	return perBlock
}

// blockTraceName derives the per-block trace file name: "x.trc" with
// block 128 becomes "x.b128.trc" (unless the trace is unique anyway).
func blockTraceName(base string, block int64, multi bool) string {
	if !multi {
		return base
	}
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.b%d%s", strings.TrimSuffix(base, ext), block, ext)
}

// runAndReport executes a program once, feeding one cache simulator
// per configuration (and optionally a trace file), then prints the
// per-block statistics. ctx cancels the VM mid-run; budget caps
// per-process instructions (0: VM default).
func runAndReport(ctx context.Context, prog *core.Program, nprocs int, budget int64, cfgs []cache.Config, traceFile string, diag bool) []experiments.BlockStats {
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		fatal(err)
	}
	m := vm.New(bc)
	m.SetContext(ctx)
	if budget > 0 {
		m.MaxInstrs = budget
	}
	// The address map serves two consumers: live miss attribution
	// (-diag) and the trace's replay sidecar (-save-trace).
	var amap, attributed *attr.Map
	if diag || traceFile != "" {
		amap = attr.NewMap(prog.Layout)
		amap.AttachMachine(m)
	}
	if diag {
		attributed = amap
	}
	var tw *trace.Writer
	var extra []trace.Sink
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tw = trace.NewWriter(f, nprocs)
		extra = append(extra, tw.Sink())
	}
	sp := obs.BeginCtx(ctx, "measure")
	stats, reports, err := experiments.SimulateStream(ctx, sp, func(s trace.Sink) error { return m.Run(s) }, cfgs, attributed, extra...)
	sp.End()
	if err != nil {
		fatal(err)
	}
	if tw != nil {
		n, err := tw.Flush()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d references -> %s\n", n, traceFile)
		// The sidecar lets a later `fssim -replay trace -diag` resolve
		// the stored addresses back to objects and fields.
		side := trace.MapSidecar(traceFile)
		if err := amap.WriteFile(side); err != nil {
			fatal(fmt.Errorf("address-map sidecar: %w", err))
		}
		fmt.Printf("address map -> %s\n", side)
	}
	return printBlocks(stats, reports)
}

// printBlocks prints each block size's statistics, then its
// attribution table under -diag, and returns the statistics for the
// manifest. The live and replay paths print through it alike.
func printBlocks(stats []*cache.Stats, reports []*attr.Report) []experiments.BlockStats {
	out := make([]experiments.BlockStats, len(stats))
	for i, st := range stats {
		fmt.Printf("block %3d: %s", st.Config.BlockSize, st.String())
		out[i] = experiments.NewBlockStats(st)
	}
	for i, r := range reports {
		fmt.Printf("\n--- attribution, block %d ---\n%s", stats[i].Config.BlockSize, r.Render())
	}
	return out
}

// writeStatsJSON dumps the full per-block statistics (the complete
// counter set plus the per-processor decomposition) as JSON.
func writeStatsJSON(path string, perBlock []experiments.BlockStats) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(perBlock, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// writeReport assembles and writes the run manifest when -report is
// set.
func writeReport(rec *obs.Recorder, path string, config map[string]any, perBlock []experiments.BlockStats, verbose bool) {
	if path == "" {
		return
	}
	rep := rec.Report("fssim")
	rep.Config = config
	rep.AddData("blocks", perBlock)
	if err := rep.WriteFile(path); err != nil {
		fatal(err)
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "fssim: report -> %s\n", path)
	}
}

// stopProfiles ends -cpuprofile and writes -memprofile. Every exit
// path calls it, the interrupt handler's included; only the first
// call acts.
var stopProfiles = func() error { return nil }

// exit stops the profiles and exits with code.
func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "fssim: %v\n", err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fssim: %v\n", err)
	if errors.Is(err, context.Canceled) {
		exit(130)
	}
	exit(1)
}
