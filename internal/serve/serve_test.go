package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"falseshare/internal/faultinject"
	"falseshare/internal/serve"
)

// goodProgram exhibits classic per-processor false sharing: adjacent
// cell[pid]/hits[pid] words packed into shared blocks.
const goodProgram = `
shared int cell[16];
shared int hits[16];
void main() {
    for (int i = 0; i < 200; i = i + 1) {
        cell[pid] = cell[pid] + 1;
        hits[pid] = hits[pid] + 2;
    }
}
`

// runawayProgram needs ~4M steps — far past the tiny step budget the
// poison tests submit, so every attempt blows the budget.
const runawayProgram = `
shared int x[8];
void main() {
    for (int i = 0; i < 1000000; i = i + 1) {
        x[pid] = x[pid] + 1;
    }
}
`

func newEnv(t *testing.T, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	if opt.LogW == nil {
		opt.LogW = testWriter{t}
	}
	srv, err := serve.New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// post sends one API request and decodes the envelope.
func post(t *testing.T, url, path string, body map[string]any, hdr map[string]string) (int, *serve.Envelope, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(b))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var env serve.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("POST %s: decoding envelope: %v", path, err)
	}
	return resp.StatusCode, &env, resp.Header
}

func analyzeBody() map[string]any {
	return map[string]any{"source": goodProgram, "nprocs": 4, "block_size": 64}
}

func TestEndpointsHappyPath(t *testing.T) {
	_, ts := newEnv(t, serve.Options{})

	// analyze: decisions + attribution against the original program.
	status, env, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusOK || !env.OK {
		t.Fatalf("analyze: status=%d env=%+v", status, env)
	}
	var analysis struct {
		Decisions []string `json:"decisions"`
		TopFS     []string `json:"top_fs"`
		Stats     struct {
			Refs       int64 `json:"refs"`
			FalseShare int64 `json:"false_share"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(env.Result, &analysis); err != nil {
		t.Fatalf("analyze result: %v", err)
	}
	if len(analysis.Decisions) == 0 {
		t.Error("analyze: no transformation decisions for a false-sharing program")
	}
	if analysis.Stats.Refs == 0 || analysis.Stats.FalseShare == 0 {
		t.Errorf("analyze: expected refs and false-sharing misses, got %+v", analysis.Stats)
	}
	if len(analysis.TopFS) == 0 {
		t.Error("analyze: no top false-sharing objects attributed")
	}

	// transform: restructured source + validation verdict.
	status, env, _ = post(t, ts.URL, "/v1/transform", analyzeBody(), nil)
	if status != http.StatusOK || !env.OK {
		t.Fatalf("transform: status=%d env=%+v", status, env)
	}
	var trans struct {
		TransformedSource string   `json:"transformed_source"`
		Applied           []string `json:"applied"`
		Verified          bool     `json:"verified"`
	}
	if err := json.Unmarshal(env.Result, &trans); err != nil {
		t.Fatalf("transform result: %v", err)
	}
	if !strings.Contains(trans.TransformedSource, "struct") || len(trans.Applied) == 0 {
		t.Errorf("transform: expected a grouped record, got applied=%v source:\n%s",
			trans.Applied, trans.TransformedSource)
	}
	if !trans.Verified {
		t.Error("transform: verification should default on")
	}

	// simulate: both versions; the transformed one must cut false
	// sharing.
	fs := map[string]int64{}
	for _, version := range []string{"original", "transformed"} {
		body := analyzeBody()
		body["version"] = version
		status, env, _ = post(t, ts.URL, "/v1/simulate", body, nil)
		if status != http.StatusOK || !env.OK {
			t.Fatalf("simulate %s: status=%d env=%+v", version, status, env)
		}
		var sim struct {
			Summary struct {
				FalseShare int64 `json:"false_share"`
			} `json:"summary"`
		}
		if err := json.Unmarshal(env.Result, &sim); err != nil {
			t.Fatalf("simulate result: %v", err)
		}
		fs[version] = sim.Summary.FalseShare
	}
	if fs["transformed"] >= fs["original"] {
		t.Errorf("simulate: restructuring did not cut false sharing: original=%d transformed=%d",
			fs["original"], fs["transformed"])
	}

	// Health, readiness, metrics.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/cache/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var m struct {
		Requests map[string]int64 `json:"requests"`
		Status   map[string]int64 `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	resp.Body.Close()
	if m.Requests["analyze"] == 0 || m.Status["2xx"] == 0 {
		t.Errorf("metrics: expected non-zero analyze requests and 2xx, got %+v", m)
	}
}

func TestTypedErrors(t *testing.T) {
	_, ts := newEnv(t, serve.Options{MaxBody: 4096})

	cases := []struct {
		name   string
		path   string
		body   map[string]any
		status int
		stage  string
	}{
		{"parse error", "/v1/analyze",
			map[string]any{"source": "shared int x["},
			http.StatusUnprocessableEntity, "parse"},
		{"missing source", "/v1/transform",
			map[string]any{"nprocs": 4},
			http.StatusBadRequest, "request"},
		{"bad protocol", "/v1/simulate",
			map[string]any{"source": goodProgram, "protocol": "nope"},
			http.StatusBadRequest, "config"},
		{"bad version", "/v1/simulate",
			map[string]any{"source": goodProgram, "version": "quantum"},
			http.StatusBadRequest, "request"},
		{"bad block size", "/v1/simulate",
			map[string]any{"source": goodProgram, "block_size": 48},
			http.StatusBadRequest, "config"},
	}
	for _, c := range cases {
		status, env, _ := post(t, ts.URL, c.path, c.body, nil)
		if status != c.status || env.Error == nil || env.Error.Stage != c.stage {
			t.Errorf("%s: status=%d env.Error=%+v, want status=%d stage=%q",
				c.name, status, env.Error, c.status, c.stage)
		}
	}

	// Oversized body: 413 at admission.
	big := map[string]any{"source": strings.Repeat("x", 8192)}
	status, env, _ := post(t, ts.URL, "/v1/analyze", big, nil)
	if status != http.StatusRequestEntityTooLarge || env.Error == nil || env.Error.Stage != "admission" {
		t.Errorf("oversized body: status=%d env.Error=%+v", status, env.Error)
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET analyze: status %d, want 405", resp.StatusCode)
	}
}

// TestSimulateWordInvalidate: word_invalidate is sector invalidation
// at word granularity, so it simulates with a 4-byte SectorSize, and a
// request that also names a different sector_size is a config error.
func TestSimulateWordInvalidate(t *testing.T) {
	_, ts := newEnv(t, serve.Options{})
	body := map[string]any{"source": goodProgram, "nprocs": 4, "block_size": 64, "word_invalidate": true}
	status, env, _ := post(t, ts.URL, "/v1/simulate", body, nil)
	if status != http.StatusOK || !env.OK {
		t.Fatalf("word_invalidate: status=%d env=%+v", status, env)
	}
	var res struct {
		Stats struct {
			Config     struct{ SectorSize int64 }
			FalseShare int64
		} `json:"stats"`
	}
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Config.SectorSize != 4 || res.Stats.FalseShare != 0 {
		t.Errorf("word_invalidate ran with SectorSize %d and %d false-sharing misses, want 4 and 0",
			res.Stats.Config.SectorSize, res.Stats.FalseShare)
	}

	body["sector_size"] = 4
	if status, env, _ = post(t, ts.URL, "/v1/simulate", body, nil); status != http.StatusOK {
		t.Errorf("word_invalidate with sector_size 4: status=%d env=%+v, want 200", status, env)
	}
	body["sector_size"] = 16
	status, env, _ = post(t, ts.URL, "/v1/simulate", body, nil)
	if status != http.StatusBadRequest || env.Error == nil || env.Error.Stage != "config" ||
		!strings.Contains(env.Error.Reason, "SectorSize") {
		t.Errorf("word_invalidate with sector_size 16: status=%d env.Error=%+v, want 400 stage=config naming SectorSize",
			status, env.Error)
	}
}

// TestPanicContainedNextSucceeds is the core chaos acceptance: an
// injected panic inside a request degrades that request to a typed
// 500 — and the daemon serves the next request normally.
func TestPanicContainedNextSucceeds(t *testing.T) {
	_, ts := newEnv(t, serve.Options{})

	set, err := faultinject.Parse("serve.handler:panic:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	status, env, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusInternalServerError || env.Error == nil {
		t.Fatalf("panicking request: status=%d env=%+v, want typed 500", status, env)
	}
	if env.Error.Stage == "" || !strings.Contains(env.Error.Reason, "panic") {
		t.Errorf("panicking request: error not typed: %+v", env.Error)
	}

	status, env, _ = post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusOK || !env.OK {
		t.Fatalf("request after contained panic: status=%d env=%+v, want 200", status, env)
	}
}

// TestInjectedFaultTypedError: a plain injected error surfaces as a
// typed 500 with stage "fault" and no poison strike.
func TestInjectedFaultTypedError(t *testing.T) {
	_, ts := newEnv(t, serve.Options{PoisonBudget: 1})

	set, err := faultinject.Parse("serve.handler:error:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	status, env, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusInternalServerError || env.Error == nil || env.Error.Stage != "fault" {
		t.Fatalf("injected fault: status=%d env.Error=%+v, want 500 stage=fault", status, env.Error)
	}

	// No strike: even with PoisonBudget 1, the same source still runs.
	status, env, _ = post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusOK {
		t.Fatalf("after injected fault: status=%d env=%+v (fault must not poison the input)", status, env)
	}
}

// TestQuarantinePoisonHash: a source that keeps blowing its step
// budget earns strikes; at the poison budget the hash is quarantined
// and fast-failed.
func TestQuarantinePoisonHash(t *testing.T) {
	_, ts := newEnv(t, serve.Options{PoisonBudget: 2})

	body := map[string]any{"source": runawayProgram, "nprocs": 2, "block_size": 64, "step_budget": 2000}
	for i := 0; i < 2; i++ {
		status, env, _ := post(t, ts.URL, "/v1/analyze", body, nil)
		if status != http.StatusUnprocessableEntity || env.Error == nil || env.Error.Stage != "vm" {
			t.Fatalf("strike %d: status=%d env.Error=%+v, want 422 stage=vm", i+1, status, env.Error)
		}
		if !strings.Contains(env.Error.Reason, "step budget exceeded") {
			t.Fatalf("strike %d: reason %q", i+1, env.Error.Reason)
		}
	}

	// Past the budget: fast-fail without compiling anything.
	start := time.Now()
	status, env, _ := post(t, ts.URL, "/v1/analyze", body, nil)
	if status != http.StatusUnprocessableEntity || env.Error == nil || env.Error.Stage != "quarantine" || !env.Error.Quarantined {
		t.Fatalf("quarantined request: status=%d env.Error=%+v", status, env.Error)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("quarantine fast-fail took %v", d)
	}

	// A different program (different hash) is unaffected.
	if status, env, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil); status != http.StatusOK {
		t.Fatalf("innocent request after quarantine: status=%d env=%+v", status, env)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		BudgetBlown int64 `json:"budget_blown"`
		Quarantined int64 `json:"quarantined_hashes"`
		FastFails   int64 `json:"quarantine_fastfails"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.BudgetBlown != 2 || m.Quarantined != 1 || m.FastFails != 1 {
		t.Errorf("metrics: budget_blown=%d quarantined=%d fastfails=%d, want 2/1/1",
			m.BudgetBlown, m.Quarantined, m.FastFails)
	}
}

// TestTransformNaNProgram: a valid program whose result is NaN
// validates, so repeating it is answered 200 every time and never
// counts as a contained panic or earns a quarantine strike.
func TestTransformNaNProgram(t *testing.T) {
	_, ts := newEnv(t, serve.Options{})
	body := map[string]any{"source": `
shared double x[16];
void main() {
    double z = 0.0;
    x[pid] = z / z;
}
`, "nprocs": 4, "block_size": 16}
	for i := 0; i < 3; i++ {
		if status, env, _ := post(t, ts.URL, "/v1/transform", body, nil); status != http.StatusOK || !env.OK {
			t.Fatalf("request %d: status=%d env=%+v, want 200", i+1, status, env)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Panics int64 `json:"panics_contained"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Panics != 0 {
		t.Errorf("panics_contained = %d, want 0", m.Panics)
	}
}

// TestOverloadBounded: with one worker and a one-deep queue, a third
// concurrent request is rejected 429 + Retry-After instead of
// queuing without bound.
func TestOverloadBounded(t *testing.T) {
	_, ts := newEnv(t, serve.Options{Workers: 1, Queue: 1, PerClient: 16})

	set, err := faultinject.Parse("serve.handler:delay=600ms:count=2")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	statuses := make([]int, 3)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, _ = post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
		}(i)
		// Give request i time to occupy the worker slot (i=0) and the
		// queue slot (i=1) before the next arrives.
		time.Sleep(150 * time.Millisecond)
	}
	var hdr http.Header
	var env *serve.Envelope
	statuses[2], env, hdr = post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	wg.Wait()

	if statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
		t.Errorf("admitted requests: statuses %v, want 200,200", statuses[:2])
	}
	if statuses[2] != http.StatusTooManyRequests || env.Error == nil || env.Error.Stage != "admission" {
		t.Fatalf("overflow request: status=%d env.Error=%+v, want 429 admission", statuses[2], env.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("overflow request: missing Retry-After header")
	}
}

// TestPerClientCap: one client saturating its own cap gets 429
// without affecting other clients.
func TestPerClientCap(t *testing.T) {
	_, ts := newEnv(t, serve.Options{Workers: 4, PerClient: 1})

	set, err := faultinject.Parse("serve.handler:delay=500ms:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	greedy := map[string]string{"X-Client-ID": "greedy"}
	var wg sync.WaitGroup
	var firstStatus int
	wg.Add(1)
	go func() {
		defer wg.Done()
		firstStatus, _, _ = post(t, ts.URL, "/v1/analyze", analyzeBody(), greedy)
	}()
	time.Sleep(150 * time.Millisecond)

	status, env, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), greedy)
	if status != http.StatusTooManyRequests || env.Error == nil || env.Error.Stage != "admission" {
		t.Errorf("second greedy request: status=%d env.Error=%+v, want 429", status, env.Error)
	}
	// Another client is unaffected.
	status, _, _ = post(t, ts.URL, "/v1/analyze", analyzeBody(), map[string]string{"X-Client-ID": "patient"})
	if status != http.StatusOK {
		t.Errorf("other client: status=%d, want 200", status)
	}
	wg.Wait()
	if firstStatus != http.StatusOK {
		t.Errorf("first greedy request: status=%d, want 200", firstStatus)
	}
}

// TestWarmCacheHit: an identical repeat is served from the artifact
// store — cached:true, and the handler time excludes the pipeline
// entirely.
func TestWarmCacheHit(t *testing.T) {
	_, ts := newEnv(t, serve.Options{CacheDir: t.TempDir()})

	status, cold, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusOK || cold.Cached {
		t.Fatalf("cold request: status=%d cached=%v", status, cold.Cached)
	}
	status, warm, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusOK || !warm.Cached {
		t.Fatalf("warm request: status=%d cached=%v, want cache hit", status, warm.Cached)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Error("warm result differs from cold result")
	}
	// The warm handler did a hash, one small file read, and a JSON
	// decode: sub-millisecond on any dev machine; 25ms bounds it
	// under CI noise while still proving no recompute happened.
	if warm.HandlerNs > 25*int64(time.Millisecond) {
		t.Errorf("warm handler took %v, want sub-millisecond-ish", time.Duration(warm.HandlerNs))
	}

	var st struct {
		Counters struct {
			Hits int64 `json:"hits"`
		} `json:"counters"`
	}
	resp, err := http.Get(ts.URL + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Counters.Hits != 1 {
		t.Errorf("cache stats: hits=%d, want 1", st.Counters.Hits)
	}

	// A different step budget is a different key: no stale hit.
	body := analyzeBody()
	body["step_budget"] = 1_000_000
	if _, env, _ := post(t, ts.URL, "/v1/analyze", body, nil); env.Cached {
		t.Error("different budget served from cache")
	}
}

// TestCacheWriteFaultDegrades: a failing cache write costs future
// hits, never the response.
func TestCacheWriteFaultDegrades(t *testing.T) {
	_, ts := newEnv(t, serve.Options{CacheDir: t.TempDir()})

	set, err := faultinject.Parse("serve.cache=put/:error:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	status, env, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusOK || !env.OK {
		t.Fatalf("request with failing cache write: status=%d env=%+v, want 200", status, env)
	}
	// The write was lost, so the repeat is a miss — but it computes
	// and succeeds.
	status, env, _ = post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusOK || env.Cached {
		t.Fatalf("repeat after lost write: status=%d cached=%v", status, env.Cached)
	}
}

// TestGracefulDrain: SIGTERM semantics at the library level — drain
// lets the in-flight request finish, fails readiness, rejects new
// work, closes the listener, and flushes the cache.
func TestGracefulDrain(t *testing.T) {
	srv, err := serve.New(serve.Options{CacheDir: t.TempDir(), LogW: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	set, err := faultinject.Parse("serve.handler:delay=400ms:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	inflight := make(chan int, 1)
	go func() {
		status, _, _ := post(t, url, "/v1/analyze", analyzeBody(), nil)
		inflight <- status
	}()
	time.Sleep(150 * time.Millisecond) // let it reach the handler

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("drain took %v", d)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v, want nil after drain", err)
	}
	if status := <-inflight; status != http.StatusOK {
		t.Errorf("in-flight request during drain: status=%d, want 200", status)
	}
	if !srv.Draining() {
		t.Error("Draining() false after drain")
	}
	// The listener is closed: new connections fail.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestDrainRejectsNewRequests: once draining, the handler answers
// 503 stage=drain (for deployments keeping the socket open behind a
// proxy) and readyz fails.
func TestDrainRejectsNewRequests(t *testing.T) {
	srv, ts := newEnv(t, serve.Options{})

	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	status, env, _ := post(t, ts.URL, "/v1/analyze", analyzeBody(), nil)
	if status != http.StatusServiceUnavailable || env.Error == nil || env.Error.Stage != "drain" {
		t.Errorf("request while draining: status=%d env.Error=%+v, want 503 drain", status, env.Error)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status=%d, want 503", resp.StatusCode)
	}
}

// TestDrainCancelsStragglers: a request hung past the drain deadline
// is cancelled rather than holding the daemon open forever.
func TestDrainCancelsStragglers(t *testing.T) {
	srv, ts := newEnv(t, serve.Options{})

	set, err := faultinject.Parse("serve.handler:hang:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		// The connection may be severed at the deadline or answer a
		// typed 5xx — either way the request must terminate.
		b, _ := json.Marshal(analyzeBody())
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(b))
		if err == nil {
			if resp.StatusCode < 500 {
				t.Errorf("hung request: status=%d, want 5xx or connection error", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}()
	time.Sleep(150 * time.Millisecond)

	drainCtx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	srv.Drain(drainCtx) // deadline exceeded is expected here
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain with hung request took %v", d)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hung request never terminated after drain")
	}
}

// TestAdmissionAfterDrainUnblocksQueue: requests parked in the
// admission queue when drain begins are released, not leaked.
func TestAdmissionAfterDrainUnblocksQueue(t *testing.T) {
	srv, ts := newEnv(t, serve.Options{Workers: 1, Queue: 4})

	set, err := faultinject.Parse("serve.handler:hang:count=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(set)
	defer faultinject.Enable(nil)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(analyzeBody())
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(b))
			if err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(100 * time.Millisecond)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	srv.Drain(drainCtx)

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("queued requests never released after drain")
	}
}
