package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"falseshare/internal/artifact"
	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/lang/ast"
	"falseshare/internal/obs"
	"falseshare/internal/serve"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/ksr"
	"falseshare/internal/sim/trace"
	"falseshare/internal/verify"
	"falseshare/internal/vm"
)

// program is one layer-probe input: a source compiled for a machine
// shape, measured as its original or its restructured version.
type program struct {
	Name        string
	Source      string
	Nprocs      int
	Block       int64
	Transformed bool
	// Response is a response body the workload served for this input;
	// it is the artifact payload when the probe serves none itself.
	Response []byte
}

// probeOps offsets the probe's operation IDs past any window's.
const probeOps = 1 << 40

// replayBlock is the block size of the cache-replay layer metrics.
const replayBlock = 128

// probeLayers times every layer's public calls on progs and derives
// the per-layer metrics from the spans: the compiler's stages from the
// spans core records itself, every other layer from outside. With
// viaServe, each program is also sent through an in-process fsd
// handler (the workloads that do not serve requests themselves).
func probeLayers(ctx context.Context, tr *tracer, o options, progs []program, viaServe bool) (m []metric, checked, failed int64, err error) {
	dir, err := os.MkdirTemp(o.scratch, "probe-store-")
	if err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(dir)
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		return nil, 0, 0, err
	}
	defer store.Close()
	var h http.Handler
	if viaServe {
		srv, err := serve.New(serve.Options{Workers: 1})
		if err != nil {
			return nil, 0, 0, err
		}
		h = srv.Handler()
	}
	for k, p := range progs {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, err
		}
		checked++
		if err := probeOne(ctx, tr, probeOps+int64(k), p, store, h); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: layer probe %s: %v\n", p.Name, err)
		}
	}
	probeFixedCosts(ctx, tr)
	return layerMetrics(tr.byName()), checked, failed, nil
}

// probeOne measures one program through every layer.
func probeOne(ctx context.Context, tr *tracer, op int64, p program, store *artifact.Store, h http.Handler) (err error) {
	root := tr.open(op, 0, "probe:"+p.Name)
	defer tr.close(root, nil)
	opt := core.Options{Nprocs: p.Nprocs, BlockSize: p.Block}

	var res *core.Result
	tr.do(op, root, "core.restructure", func() map[string]int64 {
		res, err = core.RestructureCtx(ctx, p.Source, opt)
		return nil
	})
	if err != nil {
		return fmt.Errorf("restructure: %w", err)
	}
	if err := coreStages(ctx, tr, op, root, p.Source, opt); err != nil {
		return err
	}
	prog := res.Original
	if p.Transformed {
		prog = res.Transformed
	}

	var degraded int64
	tr.do(op, root, "verify.run", func() map[string]int64 {
		var rep *verify.Report
		rep, err = verify.Run(
			verify.Side{File: res.Original.File, Info: res.Original.Info, Layout: res.Original.Layout},
			verify.Side{File: res.Transformed.File, Info: res.Transformed.Info, Layout: res.Transformed.Layout},
			res.Applied, verify.Options{})
		if err == nil {
			degraded = int64(len(rep.Failing()))
			if rep.TransErr != "" {
				degraded++
			}
		}
		return map[string]int64{"degraded": degraded}
	})
	if err != nil || degraded > 0 {
		return fmt.Errorf("verify: %d degraded objects, err %v", degraded, err)
	}

	var bc *vm.Program
	tr.do(op, root, "vm.compile", func() map[string]int64 {
		bc, err = vm.Compile(prog.File, prog.Info, prog.Layout, p.Nprocs)
		return nil
	})
	if err != nil {
		return fmt.Errorf("vm compile: %w", err)
	}
	// The VM alone, with a counting sink; then a second run captures
	// the reference trace every replay below consumes.
	var nrefs int64
	m := vm.New(bc)
	m.SetContext(ctx)
	vmRun := tr.do(op, root, "vm.run", func() map[string]int64 {
		err = m.Run(func(vm.Ref) { nrefs++ })
		return map[string]int64{"instrs": m.TotalInstrs(), "refs": nrefs}
	})
	if err != nil {
		return fmt.Errorf("vm run: %w", err)
	}
	refs := make([]vm.Ref, 0, nrefs)
	m = vm.New(bc)
	m.SetContext(ctx)
	if err := m.Run(func(r vm.Ref) { refs = append(refs, r) }); err != nil {
		return fmt.Errorf("vm capture: %w", err)
	}

	replay := func(name string, ccfg cache.Config, a cache.Attributor) (time.Duration, error) {
		sim, err := cache.New(ccfg)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		sim.SetAttributor(a)
		return tr.do(op, root, name, func() map[string]int64 {
			for _, r := range refs {
				sim.Access(r.Proc, r.Addr, int64(r.Size), r.Write)
			}
			return map[string]int64{"refs": nrefs, "misses": sim.Stats().Misses()}
		}), nil
	}
	for _, proto := range cache.Protocols() {
		for _, topo := range cache.Topologies() {
			ccfg := cache.DefaultConfig(p.Nprocs, replayBlock)
			ccfg.Protocol, ccfg.Topology = proto, topo
			if _, err := replay("cache.replay."+proto.String()+"."+topo.String(), ccfg, nil); err != nil {
				return err
			}
		}
	}
	amap := attr.NewMap(prog.Layout)
	amap.AttachMachine(m)
	if _, err := replay("attr.replay", cache.DefaultConfig(p.Nprocs, replayBlock), attr.NewCollector(amap, replayBlock)); err != nil {
		return err
	}

	var buf bytes.Buffer
	tr.do(op, root, "trace.write", func() map[string]int64 {
		w := trace.NewWriter(&buf, p.Nprocs)
		for _, r := range refs {
			w.Write(r)
		}
		_, err = w.Flush()
		return map[string]int64{"refs": nrefs}
	})
	if err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	var read int64
	tr.do(op, root, "trace.read", func() map[string]int64 {
		err = trace.NewReader(bytes.NewReader(buf.Bytes())).ForEach(func(vm.Ref) { read++ })
		return map[string]int64{"refs": read}
	})
	if err != nil || read != nrefs {
		return fmt.Errorf("trace read: %d of %d refs, err %v", read, nrefs, err)
	}
	tr.do(op, root, "trace.partee", func() map[string]int64 {
		var a, b int64
		pt := trace.NewParTee(0, func(vm.Ref) { a++ }, func(vm.Ref) { b++ })
		sink := pt.Sink()
		for _, r := range refs {
			sink(r)
		}
		err = pt.Close()
		return map[string]int64{"refs": nrefs}
	})
	if err != nil {
		return fmt.Errorf("partee: %w", err)
	}

	// The KSR model re-runs the VM with its own cache inline; its self
	// time is what remains after this program's VM run and a replay at
	// the model's cache geometry.
	kcfg := ksr.DefaultConfig()
	ksrReplay, err := replay("ksr.replay", cache.Config{NumProcs: p.Nprocs, BlockSize: kcfg.BlockSize, CacheSize: kcfg.CacheSize, Assoc: kcfg.Assoc}, nil)
	if err != nil {
		return err
	}
	id := tr.open(op, root, "ksr.execute")
	start := time.Now()
	_, err = ksr.ExecuteCtx(ctx, prog, kcfg)
	tr.close(id, map[string]int64{"self_ns": int64(time.Since(start) - vmRun - ksrReplay)})
	if err != nil {
		return fmt.Errorf("ksr: %w", err)
	}
	tr.do(op, root, "experiments.measure", func() map[string]int64 {
		_, err = experiments.MeasureConfig(ctx, prog, cache.DefaultConfig(p.Nprocs, p.Block), 0)
		return nil
	})
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}

	payload := p.Response
	if h != nil {
		if payload, err = probeServe(tr, op, root, h, p); err != nil {
			return err
		}
	}
	if payload == nil {
		return errors.New("no response payload for the artifact store")
	}
	tr.do(op, root, "artifact.put", func() map[string]int64 {
		err = store.Put(ctx, "bench/probe", p.Name, payload)
		return map[string]int64{"bytes": int64(len(payload))}
	})
	if err != nil {
		return fmt.Errorf("artifact put: %w", err)
	}
	var got json.RawMessage
	var ok bool
	tr.do(op, root, "artifact.get", func() map[string]int64 {
		got, ok = store.Get("bench/probe", p.Name)
		return nil
	})
	if !ok || !bytes.Equal(got, payload) {
		return errors.New("artifact get: entry missing or changed")
	}
	return nil
}

// probeServe sends p to each fsd endpoint through an in-process
// handler and returns the transform result as the artifact payload.
func probeServe(tr *tracer, op, parent int64, h http.Handler, p program) ([]byte, error) {
	version := "original"
	if p.Transformed {
		version = "transformed"
	}
	body, err := json.Marshal(map[string]any{"source": p.Source, "nprocs": p.Nprocs, "block_size": p.Block, "version": version})
	if err != nil {
		return nil, err
	}
	var payload []byte
	for _, ep := range []string{"analyze", "transform", "simulate"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/"+ep, bytes.NewReader(body))
		id := tr.open(op, parent, "serve."+ep)
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		handler, _ := strconv.ParseInt(rec.Header().Get("X-Handler-Ns"), 10, 64)
		tr.close(id, map[string]int64{"handler_ns": handler, "transport_ns": d.Nanoseconds() - handler})
		env, err := checkResponse(ep, rec.Code, rec.Body.Bytes())
		if err != nil {
			return nil, err
		}
		if ep == "transform" {
			payload = env.Result
		}
	}
	return payload, nil
}

// coreStageLayers names the layer each of core's stage spans times.
var coreStageLayers = map[string]string{
	"parse":      "lang.parse",
	"typecheck":  "lang.check",
	"recheck":    "lang.check",
	"layout":     "layout.compute",
	"cfg":        "cfg.build",
	"pdv":        "analysis.pdv",
	"procs":      "analysis.procs",
	"nonconc":    "analysis.nonconc",
	"sideeffect": "analysis.sideeffect",
	"decide":     "transform.decide",
	"apply":      "transform.apply",
}

// coreStages runs core.RestructureCtx again with an obs recorder bound
// to the goroutine and copies core's own spans into the trace, each
// stage under its layer's name. core does not time the printing of the
// transformed source, so the probe times that from outside; self_ns on
// the copied restructure span is what core adds around its stages and
// the printer.
func coreStages(ctx context.Context, tr *tracer, op, parent int64, src string, opt core.Options) error {
	rec := obs.NewRecorder()
	prev := obs.BindGoroutine(rec)
	res, err := core.RestructureCtx(ctx, src, opt)
	obs.BindGoroutine(prev)
	if err != nil {
		return fmt.Errorf("traced restructure: %w", err)
	}
	top := rec.Find("restructure")
	if top == nil {
		return errors.New("core recorded no restructure span")
	}
	start := time.Now()
	ast.Print(res.Transformed.File)
	printed := time.Since(start)
	tr.add(op, parent, "lang.print", start, printed, nil)

	counts := map[string]int64{"applied": int64(len(res.Applied))}
	id := tr.add(op, parent, "core.traced", top.Started, top.Wall, counts)
	var stages time.Duration
	for _, c := range top.Children {
		stages += copyCoreSpan(tr, op, id, c)
	}
	counts["self_ns"] = int64(top.Wall - stages - printed)
	return nil
}

// copyCoreSpan copies s and its descendants into the trace and returns
// the summed wall time of the stage spans among them.
func copyCoreSpan(tr *tracer, op, parent int64, s *obs.Span) time.Duration {
	if layer, ok := coreStageLayers[s.Name]; ok {
		tr.add(op, parent, layer, s.Started, s.Wall, s.Counters)
		return s.Wall
	}
	id := tr.add(op, parent, "core."+s.Name, s.Started, s.Wall, s.Counters)
	var stages time.Duration
	for _, c := range s.Children {
		stages += copyCoreSpan(tr, op, id, c)
	}
	return stages
}

// probeFixedCosts times the per-call costs that do not depend on the
// workload's inputs: opening an obs span with and without a recorder
// bound to the goroutine, and dispatching a job through the pool.
func probeFixedCosts(ctx context.Context, tr *tracer) {
	const calls, batches = 2000, 5
	for b := 0; b < batches; b++ {
		tr.do(probeOps-1, 0, "obs.begin", func() map[string]int64 {
			for i := 0; i < calls; i++ {
				obs.Begin("bench").End()
			}
			return map[string]int64{"calls": calls}
		})
		rec := obs.NewRecorder()
		prev := obs.BindGoroutine(rec)
		tr.do(probeOps-1, 0, "obs.begin_bound", func() map[string]int64 {
			for i := 0; i < calls; i++ {
				obs.Begin("bench").End()
			}
			return map[string]int64{"calls": calls}
		})
		obs.BindGoroutine(prev)
		jobs := make([]pool.Job[int], calls/4)
		for i := range jobs {
			jobs[i] = pool.Job[int]{Key: strconv.Itoa(i), Run: func(context.Context) (int, error) { return 0, nil }}
		}
		tr.do(probeOps-1, 0, "pool.run", func() map[string]int64 {
			_, _ = pool.RunPolicy(ctx, "bench", 2, pool.Policy{}, jobs)
			return map[string]int64{"jobs": int64(len(jobs))}
		})
	}
}

// layerMetrics derives the per-layer metrics from the probe's spans
// (and, for serve, from the window's request spans).
func layerMetrics(ss spanSet) []metric {
	us, ms := time.Microsecond, time.Millisecond
	m := []metric{
		{Name: "lang.parse_us", Value: ss.medianDur("lang.parse", us), Unit: "us"},
		{Name: "lang.check_us", Value: ss.medianDur("lang.check", us), Unit: "us"},
		{Name: "lang.print_us", Value: ss.medianDur("lang.print", us), Unit: "us"},
		{Name: "cfg.build_us", Value: ss.medianDur("cfg.build", us), Unit: "us"},
		{Name: "analysis.pdv_us", Value: ss.medianDur("analysis.pdv", us), Unit: "us"},
		{Name: "analysis.procs_us", Value: ss.medianDur("analysis.procs", us), Unit: "us"},
		{Name: "analysis.nonconc_us", Value: ss.medianDur("analysis.nonconc", us), Unit: "us"},
		{Name: "analysis.sideeffect_us", Value: ss.medianDur("analysis.sideeffect", us), Unit: "us"},
		{Name: "analysis.rsd_merged", Value: float64(ss.sum("analysis.sideeffect", "rsd_merged")), Unit: "count"},
		{Name: "analysis.rsd_capped", Value: float64(ss.sum("analysis.sideeffect", "rsd_capped")), Unit: "count"},
		{Name: "transform.decide_us", Value: ss.medianDur("transform.decide", us), Unit: "us"},
		{Name: "transform.apply_us", Value: ss.medianDur("transform.apply", us), Unit: "us"},
		{Name: "transform.decisions", Value: float64(ss.sum("transform.decide", "decisions")), Unit: "count"},
		{Name: "transform.applied_frac", Value: ratio(ss.sum("core.traced", "applied"), ss.sum("transform.decide", "decisions")), Unit: "fraction"},
		{Name: "layout.compute_us", Value: ss.medianDur("layout.compute", us), Unit: "us"},
		{Name: "core.restructure_us", Value: ss.medianDur("core.restructure", us), Unit: "us"},
		{Name: "core.self_us", Value: ss.medianCount("core.traced", "self_ns", 1e3), Unit: "us"},
		{Name: "obs.begin_ns", Value: ss.nsPer("obs.begin", "calls"), Unit: "ns"},
		{Name: "obs.begin_bound_ns", Value: ss.nsPer("obs.begin_bound", "calls"), Unit: "ns"},
		{Name: "verify.run_ms", Value: ss.medianDur("verify.run", ms), Unit: "ms"},
		{Name: "verify.degraded", Value: float64(ss.sum("verify.run", "degraded")), Unit: "count"},
		{Name: "vm.compile_us", Value: ss.medianDur("vm.compile", us), Unit: "us"},
		{Name: "vm.ns_per_instr", Value: ss.nsPer("vm.run", "instrs"), Unit: "ns"},
		{Name: "vm.ns_per_ref", Value: ss.nsPer("vm.run", "refs"), Unit: "ns"},
		{Name: "vm.instrs", Value: float64(ss.sum("vm.run", "instrs")), Unit: "count"},
		{Name: "vm.refs", Value: float64(ss.sum("vm.run", "refs")), Unit: "count"},
	}
	for _, proto := range cache.Protocols() {
		for _, topo := range cache.Topologies() {
			suffix := proto.String() + "." + topo.String()
			m = append(m, metric{Name: "cache.ns_per_ref." + suffix, Value: ss.nsPer("cache.replay."+suffix, "refs"), Unit: "ns"})
		}
	}
	wi := "cache.replay." + cache.WriteInvalidate.String() + "." + cache.TopoFlat.String()
	m = append(m,
		metric{Name: "cache.misses", Value: float64(ss.sum(wi, "misses")), Unit: "count"},
		metric{Name: "attr.ns_per_ref", Value: ss.nsPer("attr.replay", "refs") - ss.nsPer(wi, "refs"), Unit: "ns"},
		metric{Name: "trace.write_ns_per_ref", Value: ss.nsPer("trace.write", "refs"), Unit: "ns"},
		metric{Name: "trace.read_ns_per_ref", Value: ss.nsPer("trace.read", "refs"), Unit: "ns"},
		metric{Name: "trace.partee_ns_per_ref", Value: ss.nsPer("trace.partee", "refs"), Unit: "ns"},
		metric{Name: "ksr.execute_ms", Value: ss.medianDur("ksr.execute", ms), Unit: "ms"},
		metric{Name: "ksr.self_ms", Value: ss.medianCount("ksr.execute", "self_ns", 1e6), Unit: "ms"},
		metric{Name: "experiments.measure_ms", Value: ss.medianDur("experiments.measure", ms), Unit: "ms"},
		metric{Name: "pool.job_us", Value: ss.nsPer("pool.run", "jobs") / 1e3, Unit: "us"},
		metric{Name: "artifact.put_us", Value: ss.medianDur("artifact.put", us), Unit: "us"},
		metric{Name: "artifact.get_us", Value: ss.medianDur("artifact.get", us), Unit: "us"},
		metric{Name: "artifact.entry_kb", Value: ss.medianCount("artifact.put", "bytes", 1024), Unit: "KiB"},
	)
	var served, cached int64
	var transport []time.Duration
	for _, ep := range []string{"analyze", "transform", "simulate"} {
		spans := ss["serve."+ep]
		m = append(m, metric{Name: "serve.handler_ms." + ep, Value: ss.medianCount("serve."+ep, "handler_ns", 1e6), Unit: "ms", N: len(spans)})
		served += int64(len(spans))
		cached += ss.sum("serve."+ep, "cached")
		for _, s := range spans {
			transport = append(transport, time.Duration(s.Counts["transport_ns"]))
		}
	}
	m = append(m,
		metric{Name: "serve.transport_us", Value: float64(medianOf(transport)) / 1e3, Unit: "us", N: len(transport)},
		metric{Name: "serve.cache_hit_frac", Value: ratio(cached, served), Unit: "fraction"},
	)
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
