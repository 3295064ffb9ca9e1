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
	"runtime"
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

// sampleEvery is the -v progress-streaming period, in simulated block
// references.
const sampleEvery = 2_000_000

func main() {
	var (
		nprocs      = flag.Int("p", 12, "number of processes")
		jobs        = flag.Int("j", runtime.GOMAXPROCS(0), "parallelism: >1 runs one goroutine per block-size simulator (1 = serial)")
		blockList   = flag.String("blocks", "16,64,128", "comma-separated block sizes to simulate")
		bench       = flag.String("bench", "", "run a bundled benchmark instead of a file")
		scale       = flag.Int("scale", 1, "workload scale for -bench")
		transformed = flag.Bool("transformed", false, "run the compiler-restructured version")
		saveTrace   = flag.String("save-trace", "", "also store the reference trace to this file (plus its address-map sidecar)")
		replay      = flag.String("replay", "", "simulate a stored trace instead of executing a program")
		diag        = flag.Bool("diag", false, "attribute misses to objects and fields; prints per-block false-sharing tables (implies -j 1)")
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
	{
		p, err := cache.ParseProtocol(*protoFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fssim: %v\n", err)
			exit(2)
		}
		tp, err := cache.ParseTopology(*topoFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fssim: %v\n", err)
			exit(2)
		}
		simKnobs = knobs{proto: p, topo: tp, ringSize: *ringSize, sector: *sector}
	}

	var blocks []int64
	for _, s := range strings.Split(*blockList, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fssim: bad block size %q\n", s)
			exit(2)
		}
		// Validate each block against the simulator configuration it
		// will become, so a bad size (not a power of two, too small)
		// or knob combination is one clear message here instead of
		// garbage classifications. Two-ring defaults are filled by
		// cache.New, so validate through it.
		if _, verr := cache.New(simConfig(*nprocs, v)); verr != nil {
			fmt.Fprintf(os.Stderr, "fssim: %v\n", verr)
			exit(2)
		}
		blocks = append(blocks, v)
	}

	// Attribution resolves every miss through one shared, lazily grown
	// address map, so the per-block simulators must consume the stream
	// on a single goroutine.
	if *diag {
		*jobs = 1
	}

	var perBlock []experiments.BlockStats

	// Replay mode: drive the simulators from a stored trace (the
	// paper's methodology: simulate traces captured once).
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		sims, err := newSims(*nprocs, blocks, *verbose)
		if err != nil {
			fatal(err)
		}
		// A stored trace is a bare reference stream; attribution needs
		// the address map the capturing run saved alongside it.
		var colls []*attr.Collector
		if *diag {
			amap, err := attr.LoadMap(trace.MapSidecar(*replay))
			if err != nil {
				fatal(fmt.Errorf("-diag needs the trace's address-map sidecar (re-capture with -save-trace to produce it): %w", err))
			}
			colls = attachCollectors(amap, sims, blocks)
		}
		sinks := make([]trace.Sink, len(sims))
		for i, s := range sims {
			s := s
			sinks[i] = func(r vm.Ref) { s.Access(r.Proc, r.Addr, int64(r.Size), r.Write) }
		}
		sp := obs.BeginCtx(ctx, "replay")
		sink, finish := fanout(*jobs, sp, blocks, sinks...)
		tr := trace.NewReader(f)
		// Headered traces declare their capture's process count: check
		// it against -p up front (the Reader additionally validates
		// every record). Legacy headerless traces carry no count, so a
		// stored ref could name a proc the -p sized simulators have no
		// counters for; reject it before it reaches a sink rather than
		// panicking there.
		if n := tr.Nprocs(); n > *nprocs {
			fatal(fmt.Errorf("trace %s was captured with %d processes; rerun with -p %d or more", *replay, n, n))
		}
		var badRef error
		nrec := 0
		err = tr.ForEach(func(r vm.Ref) {
			nrec++
			if badRef == nil && r.Proc >= *nprocs {
				badRef = fmt.Errorf("trace %s: record %d uses proc %d; rerun with -p %d or more",
					*replay, nrec, r.Proc, r.Proc+1)
			}
			if badRef == nil {
				sink(r)
			}
		})
		if err == nil {
			err = badRef
		}
		if ferr := finish(); err == nil {
			err = ferr
		}
		sp.End()
		if err != nil {
			fatal(err)
		}
		for i, s := range sims {
			fmt.Printf("block %3d: %s", blocks[i], s.Stats().String())
			perBlock = append(perBlock, experiments.NewBlockStats(s.Stats()))
		}
		printDiag(colls, blocks, *nprocs)
		writeStatsJSON(*statsJSON, perBlock)
		writeReport(rec, *report, map[string]any{
			"nprocs": *nprocs, "blocks": blocks, "replay": *replay, "jobs": *jobs,
			"protocol": simKnobs.proto.String(), "topology": simKnobs.topo.String(),
		}, perBlock, *verbose)
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
		return
	}

	var source string
	switch {
	case *bench != "":
		b := workload.Get(*bench)
		if b == nil {
			fmt.Fprintf(os.Stderr, "fssim: unknown benchmark %q (choose from: %s)\n",
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
		fmt.Fprintln(os.Stderr, "usage: fssim [flags] file.parc | fssim -bench NAME")
		flag.PrintDefaults()
		exit(2)
	}

	// One compiled program per block size for the transformed case
	// (padding depends on the block); the unoptimized program is
	// block-independent so one execution feeds all simulators.
	if !*transformed {
		prog, err := core.CompileCtx(ctx, source, core.Options{Nprocs: *nprocs, BlockSize: blocks[0]})
		if err != nil {
			fatal(err)
		}
		stats, err := runAndReport(ctx, prog, *nprocs, *jobs, *stepBudget, blocks, *saveTrace, *diag, *verbose)
		if err != nil {
			fatal(err)
		}
		perBlock = append(perBlock, stats...)
	} else {
		for _, blk := range blocks {
			obs.LogfCtx(ctx, "restructuring for block %d", blk)
			res, err := core.RestructureCtx(ctx, source, core.Options{Nprocs: *nprocs, BlockSize: blk})
			if err != nil {
				fatal(err)
			}
			// The transformed program differs per block size, so each
			// block's execution produces a distinct trace: write one
			// trace file per block rather than silently keeping only
			// the first.
			traceFile := ""
			if *saveTrace != "" {
				traceFile = blockTraceName(*saveTrace, blk, len(blocks) > 1)
				if len(blocks) > 1 {
					fmt.Printf("note: transformed traces differ per block; block %d -> %s\n", blk, traceFile)
				}
			}
			stats, err := runAndReport(ctx, res.Transformed, *nprocs, *jobs, *stepBudget, []int64{blk}, traceFile, *diag, *verbose)
			if err != nil {
				fatal(err)
			}
			perBlock = append(perBlock, stats...)
		}
	}

	writeStatsJSON(*statsJSON, perBlock)
	writeReport(rec, *report, map[string]any{
		"nprocs": *nprocs, "blocks": blocks, "bench": *bench, "scale": *scale,
		"transformed": *transformed, "jobs": *jobs,
		"protocol": simKnobs.proto.String(), "topology": simKnobs.topo.String(),
	}, perBlock, *verbose)

	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

// knobs carries the protocol/topology/sector flags to every simulator
// construction site (replay and execute paths alike).
type knobs struct {
	proto    cache.Protocol
	topo     cache.Topology
	ringSize int
	sector   int64
}

var simKnobs knobs

// simConfig is DefaultConfig plus the run's protocol/topology/sector
// knobs.
func simConfig(nprocs int, blk int64) cache.Config {
	cfg := cache.DefaultConfig(nprocs, blk)
	cfg.Protocol = simKnobs.proto
	cfg.Topology = simKnobs.topo
	cfg.RingSize = simKnobs.ringSize
	cfg.SectorSize = simKnobs.sector
	return cfg
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

// newSims builds one simulator per block size, streaming progress in
// verbose mode. Block sizes are validated at flag parsing, so a
// failure here means a programming error upstream.
func newSims(nprocs int, blocks []int64, verbose bool) ([]*cache.Sim, error) {
	sims := make([]*cache.Sim, len(blocks))
	for i, blk := range blocks {
		var err error
		sims[i], err = cache.New(simConfig(nprocs, blk))
		if err != nil {
			return nil, err
		}
		if verbose && i == 0 {
			blk := blk
			sims[i].SetSampler(sampleEvery, func(st *cache.Stats) {
				fmt.Fprintf(os.Stderr, "fssim: block %d: %d refs, missrate=%.4f%% (fs=%.4f%%)\n",
					blk, st.Refs, 100*st.MissRate(), 100*st.FSRate())
			})
		}
	}
	return sims, nil
}

// fanout assembles the reference-delivery path for the given sinks: a
// plain Tee at -j 1 (or when there is only one sink), otherwise a
// batched ParTee running each sink on its own goroutine. Every sink
// sees the identical full stream in order either way; the returned
// finish func must be called after the stream ends.
func fanout(j int, parent *obs.Span, blocks []int64, sinks ...trace.Sink) (trace.Sink, func() error) {
	if j == 1 || len(sinks) < 2 {
		return trace.Tee(sinks...), func() error { return nil }
	}
	pt := trace.NewParTee(0, sinks...)
	for i := range sinks {
		if i < len(blocks) {
			pt.SetSpan(i, parent.Child(fmt.Sprintf("sim:b%d", blocks[i])))
		}
	}
	return pt.Sink(), pt.Close
}

// runAndReport executes a program once, feeding one cache simulator
// per block size (and optionally a trace file), then prints the
// per-block statistics. With -j > 1 the simulators (and the trace
// writer) each consume the stream on their own goroutine. ctx cancels
// the VM mid-run; budget caps per-process instructions (0: VM
// default).
func runAndReport(ctx context.Context, prog *core.Program, nprocs, j int, budget int64, blocks []int64, traceFile string, diag, verbose bool) ([]experiments.BlockStats, error) {
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		return nil, err
	}
	sims, err := newSims(nprocs, blocks, verbose)
	if err != nil {
		return nil, err
	}
	m := vm.New(bc)
	m.SetContext(ctx)
	if budget > 0 {
		m.MaxInstrs = budget
	}
	// The address map serves two consumers: live miss attribution
	// (-diag) and the trace's replay sidecar (-save-trace).
	var amap *attr.Map
	var colls []*attr.Collector
	if diag || traceFile != "" {
		amap = attr.NewMap(prog.Layout)
		amap.AttachMachine(m)
	}
	if diag {
		colls = attachCollectors(amap, sims, blocks)
	}
	sinks := make([]trace.Sink, 0, len(blocks)+1)
	for _, s := range sims {
		s := s
		sinks = append(sinks, func(r vm.Ref) { s.Access(r.Proc, r.Addr, int64(r.Size), r.Write) })
	}
	var tw *trace.Writer
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tw = trace.NewWriter(f, nprocs)
		sinks = append(sinks, tw.Sink())
	}
	sp := obs.BeginCtx(ctx, "measure")
	sink, finish := fanout(j, sp, blocks, sinks...)
	runErr := m.Run(sink)
	if err := finish(); runErr == nil {
		runErr = err
	}
	sp.End()
	if runErr != nil {
		return nil, runErr
	}
	if tw != nil {
		n, err := tw.Flush()
		if err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d references -> %s\n", n, traceFile)
		// The sidecar lets a later `fssim -replay trace -diag` resolve
		// the stored addresses back to objects and fields.
		side := trace.MapSidecar(traceFile)
		if err := amap.WriteFile(side); err != nil {
			return nil, fmt.Errorf("address-map sidecar: %w", err)
		}
		fmt.Printf("address map -> %s\n", side)
	}
	out := make([]experiments.BlockStats, 0, len(sims))
	for i, s := range sims {
		fmt.Printf("block %3d: %s", blocks[i], s.Stats().String())
		out = append(out, experiments.NewBlockStats(s.Stats()))
	}
	if diag {
		amap.ResolveOwners()
		printDiag(colls, blocks, nprocs)
	}
	return out, nil
}

// attachCollectors installs one miss attributor per simulator, all
// resolving through the same address map (single-goroutine use only;
// -diag forces -j 1).
func attachCollectors(amap *attr.Map, sims []*cache.Sim, blocks []int64) []*attr.Collector {
	colls := make([]*attr.Collector, len(sims))
	for i, s := range sims {
		colls[i] = attr.NewCollector(amap, blocks[i])
		s.SetAttributor(colls[i])
	}
	return colls
}

// printDiag renders each block's attribution report.
func printDiag(colls []*attr.Collector, blocks []int64, nprocs int) {
	for i, c := range colls {
		fmt.Printf("\n--- attribution, block %d ---\n%s", blocks[i], c.Report(nprocs).Render())
	}
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
