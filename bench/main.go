// Command bench is the repository's end-to-end benchmark. It runs one
// or all of four workloads, each in its own child process so that its
// set-up time and peak memory belong to it alone:
//
//	compile     the restructurer (fsc's path) over the ten kernels and
//	            a seeded generated corpus
//	serve-cold  fsd with every request unique: the whole pipeline,
//	            verification and artifact writes
//	serve-warm  fsd replaying requests it has already answered: the
//	            artifact read path, HTTP and JSON, pipeline bypassed
//	repro       the paper's evaluation at the golden configurations,
//	            byte-compared to cmd/fsexp/testdata
//
// Every workload is a closed loop. Each run prints one
// "workload metric value unit n=samples" line per metric and, last,
// one JSON object with the metrics BENCHMARK.json names: its
// end_to_end metrics, or with -trace 1 its per_layer metrics. The
// end-to-end timings are reported at a fixed reference speed, which
// cancels the drift of a shared machine's speed (speed.go).
//
// Usage, from the repository root:
//
//	go run ./bench -workload compile -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload compile -seed 1 -seconds 20 -trace 0
//
// run.sh builds the same program with the Go build cache kept under
// .bench_build/, so that a run writes nothing outside the checkout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workloadDef names a workload, its default measuring window, and its
// set-up function.
type workloadDef struct {
	name    string
	seconds int
	setup   func(ctx context.Context, o options) (*bench, error)
}

var workloads = []workloadDef{
	{"compile", 20, setupCompile},
	{"serve-cold", 30, setupServeCold},
	{"serve-warm", 20, setupServeWarm},
	{"repro", 30, setupRepro},
}

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root: goldens and BENCHMARK.json live here
	scratch  string // <root>/.bench_build: temp stores and span files
	// started is when the workload's process was started; setup_s runs
	// from it to the first timed operation.
	started time.Time
	// setupOnly makes the child build the workload, report setup_s and
	// exit without measuring a window.
	setupOnly bool
}

// A set-up of a few milliseconds varies by tens of percent with process
// start alone, so the parent times up to setupRuns set-ups of each
// workload, each in a fresh process, and reports their median; it stops
// early once they have taken setupBudget (serve-warm's one set-up takes
// longer than that).
const (
	setupRuns   = 5
	setupBudget = 2 * time.Second
)

// bench is one built workload, ready to measure.
type bench struct {
	// workers is the closed-loop concurrency (one goroutine each).
	workers int
	// op performs operation i; an error marks it failed. tr is nil in
	// untraced runs.
	op func(ctx context.Context, tr *tracer, i int64) error
	// check runs once after the window; it returns how many checks it
	// made and how many failed.
	check func(ctx context.Context) (checked, failed int64)
	// layers measures the per-layer metrics of a traced run; it may
	// add failed checks of its own.
	layers func(ctx context.Context, tr *tracer) (m []metric, checked, failed int64, err error)
	close  func()
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0: not a timing).
	N int `json:"n,omitempty"`
	// Note qualifies the value, e.g. which percentile a tail holds.
	Note string `json:"note,omitempty"`
}

// result is what a child process reports to its parent.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

func main() {
	var (
		o       options
		wl      = flag.String("workload", "all", "all, or one of compile, serve-cold, serve-warm, repro")
		seconds = flag.Int("seconds", 0, "measuring window per workload (0: the workload's default)")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out     = flag.String("out", "", "also write the JSON result lines to this file")
		child   = flag.Bool("child", false, "run one workload in this process (internal)")
		onlySet = flag.Bool("setup-only", false, "with -child: build the workload, report setup_s and exit (internal)")
		started = flag.Int64("started", 0, "with -child: when the parent started this process, in Unix nanoseconds")
		update  = flag.Bool("update", false, "rewrite bench/testdata/compile.golden and exit")
	)
	flag.Int64Var(&o.seed, "seed", 1, "workload input seed")
	flag.Parse()
	o.workload, o.seconds, o.trace, o.setupOnly = *wl, *seconds, *trace == 1, *onlySet
	o.started = time.Now()
	if *started != 0 {
		o.started = time.Unix(0, *started)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	var err error
	if o.root, err = findRoot(); err != nil {
		fatalf("%v", err)
	}
	o.scratch = filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fatalf("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *update:
		err = updateCompileGolden(ctx, o.root)
	case *child:
		err = runChild(ctx, o)
	default:
		err = runParent(ctx, o, *out)
	}
	if err != nil {
		stop()
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// findRoot walks up from the working directory to the module root of
// the falseshare repository.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module falseshare\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the falseshare repository (no go.mod declaring module falseshare)")
		}
		dir = parent
	}
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runParent runs the selected workloads, each in a child process, and
// prints their metric lines and JSON results.
func runParent(ctx context.Context, o options, outPath string) error {
	spec, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var lines []byte
	for _, name := range names {
		w, ok := lookup(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		seconds := o.seconds
		if seconds <= 0 {
			seconds = w.seconds
		}
		res, err := spawn(ctx, o, name, seconds, false)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !o.trace {
			if err := repeatSetup(ctx, o, res); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		printMetrics(os.Stdout, res)
		line, err := resultLine(spec, res, o.trace)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(string(line))
		lines = append(append(lines, line...), '\n')
	}
	if outPath != "" {
		return os.WriteFile(outPath, lines, 0o644)
	}
	return nil
}

// printMetrics writes one "workload metric value unit" line per
// metric, with the sample count behind each timing.
func printMetrics(w io.Writer, res *result) {
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%s %s %s %s", res.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

// repeatSetup times further set-ups of res's workload in fresh
// processes, within setupRuns and setupBudget, and replaces res's
// setup_s with the median of all of them.
func repeatSetup(ctx context.Context, o options, res *result) error {
	k := slices.IndexFunc(res.Metrics, func(m metric) bool { return m.Name == "setup_s" })
	if k < 0 {
		return errors.New("child reported no setup_s")
	}
	secs := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	setups := []time.Duration{secs(res.Metrics[k].Value)}
	spent := setups[0]
	for len(setups) < setupRuns && spent < setupBudget {
		r, err := spawn(ctx, o, res.Workload, 0, true)
		if err != nil {
			return fmt.Errorf("set-up run: %w", err)
		}
		s := secs(r.Metrics[0].Value)
		setups, spent = append(setups, s), spent+s
	}
	res.Metrics[k] = metric{Name: "setup_s", Value: medianOf(setups).Seconds(), Unit: "s", N: len(setups),
		Note: "median set-up of fresh processes, at the reference speed"}
	return nil
}

// spawn re-executes this binary on one workload and decodes the
// result it prints; with setupOnly the child only builds the workload.
// The child is killed if the run is interrupted or overruns its window
// by more than the set-up and trace allowance.
func spawn(ctx context.Context, o options, name string, seconds int, setupOnly bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(seconds)*time.Second+150*time.Second)
	defer cancel()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-setup-only="+strconv.FormatBool(setupOnly),
		"-started", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Dir = o.root
	// Interrupt the child the way a user would, so it drains fsd and
	// removes its temp stores before exiting.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

// spec is the part of BENCHMARK.json the result line follows.
type spec struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultLine renders the result object: correctness, operation
// counts, and exactly the metrics BENCHMARK.json lists for the mode.
func resultLine(s *spec, res *result, traced bool) ([]byte, error) {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	have := map[string]metric{}
	for _, m := range res.Metrics {
		have[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, w := range want {
		m, ok := have[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
		metrics[w.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, metrics})
}

// runChild measures one workload and prints the result as JSON on
// stdout.
func runChild(ctx context.Context, o options) error {
	res, err := measure(ctx, o)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measure builds the workload once and measures it for the window, with
// a speed probe running throughout to scale the timings.
func measure(ctx context.Context, o options) (*result, error) {
	w, ok := lookup(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	probe := startSpeedProbe()
	defer probe.stop()
	b, err := w.setup(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", o.workload, err)
	}
	defer b.close()
	setup := time.Since(o.started)
	setupRef := probe.phase()
	if o.setupOnly {
		return &result{Workload: o.workload, Metrics: []metric{setupMetric(setup, setupRef)}}, nil
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ops, failed, wall := window(ctx, b, tr, time.Duration(o.seconds)*time.Second)
	windowRef := probe.phase()
	lat := make([]time.Duration, len(ops))
	scaled := make([]time.Duration, len(ops))
	for i, op := range ops {
		lat[i], scaled[i] = op.d, probe.scaled(op.start, op.d)
	}
	attempted := int64(len(ops))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.check != nil {
		c, f := b.check(ctx)
		attempted, failed = attempted+c, failed+f
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	res := result{Workload: o.workload}
	res.Metrics = append([]metric{setupMetric(setup, setupRef)}, endToEnd(lat, scaled, attempted, failed, wall, windowRef, rss)...)

	if o.trace {
		m, c, f, err := b.layers(ctx, tr)
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", o.workload, err)
		}
		attempted, failed = attempted+c, failed+f
		res.Metrics = append(res.Metrics, m...)
		path := filepath.Join(o.scratch, o.workload+".spans.jsonl")
		if err := tr.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s spans written to %s\n", o.workload, path)
	}
	res.Attempted, res.Failed = attempted, failed
	return &res, nil
}

// opTime is when one operation started and how long it took.
type opTime struct {
	start time.Time
	d     time.Duration
}

// window runs b's closed loop: b.workers goroutines each start
// operations back to back until d has passed since the window opened.
// wall runs from the opening to the last completion.
func window(ctx context.Context, b *bench, tr *tracer, d time.Duration) (ops []opTime, failed int64, wall time.Duration) {
	type tally struct {
		ops    []opTime
		failed int64
	}
	tallies := make([]tally, b.workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t0 := time.Now()
				if err := b.op(ctx, tr, i); err != nil {
					if t.failed++; t.failed <= 3 {
						fmt.Fprintf(os.Stderr, "bench: op %d failed: %v\n", i, err)
					}
				}
				t.ops = append(t.ops, opTime{t0, time.Since(t0)})
			}
		}(&tallies[w])
	}
	wg.Wait()
	wall = time.Since(start)
	for _, t := range tallies {
		ops = append(ops, t.ops...)
		failed += t.failed
	}
	return ops, failed, wall
}

// setupMetric is setup_s at the reference speed, from a set-up that
// took setup while the speed reference took ref.
func setupMetric(setup, ref time.Duration) metric {
	return metric{Name: "setup_s", Value: atRefSpeed(setup, ref).Seconds(), Unit: "s",
		Note: fmt.Sprintf("%s s at the measured speed", strconv.FormatFloat(setup.Seconds(), 'g', -1, 64))}
}

// endToEnd derives the user-visible metrics of one window from the
// operations' latencies as measured (lat) and at the reference speed
// (scaled); ref is the speed reference's mean run time over the window,
// which scales the throughput.
func endToEnd(lat, scaled []time.Duration, attempted, failed int64, wall, ref time.Duration, rssMiB float64) []metric {
	l, m := summarize(scaled), summarize(lat)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	measured := func(v float64) string {
		return strconv.FormatFloat(v, 'g', -1, 64) + " at the measured speed"
	}
	p90Note, p99Note := measured(ms(m.P90)), measured(ms(m.P99))
	switch l.TailPct {
	case "p90":
		p99Note += fmt.Sprintf("; unresolved: fewer than %d samples beyond it", tailMin)
	case "":
		p90Note += fmt.Sprintf("; unresolved: fewer than %d samples beyond it", tailMin)
		p99Note += fmt.Sprintf("; unresolved: fewer than %d samples beyond it", tailMin)
	}
	errFrac := 0.0
	if attempted > 0 {
		errFrac = float64(failed) / float64(attempted)
	}
	throughput := float64(len(lat)) / wall.Seconds()
	return []metric{
		{Name: "throughput_ops_s", Value: float64(len(lat)) / atRefSpeed(wall, ref).Seconds(), Unit: "ops/s", Note: measured(throughput)},
		{Name: "latency_p50_ms", Value: ms(l.P50), Unit: "ms", N: l.N, Note: measured(ms(m.P50))},
		{Name: "latency_p90_ms", Value: ms(l.P90), Unit: "ms", N: l.N, Note: p90Note},
		{Name: "latency_p99_ms", Value: ms(l.P99), Unit: "ms", N: l.N, Note: p99Note},
		{Name: "error_frac", Value: errFrac, Unit: "fraction"},
		{Name: "peak_rss_mb", Value: rssMiB, Unit: "MiB"},
		{Name: "speed.ref_us", Value: float64(ref) / float64(time.Microsecond), Unit: "us",
			Note: fmt.Sprintf("mean speed-reference run during the window; timings are scaled by %s/ref", refSpeed)},
	}
}

// peakRSS reads this process's resident-set high-water mark.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
