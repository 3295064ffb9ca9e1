// Package serve is the fsd daemon: the fsc/fsexp pipeline as a
// long-lived, overload-protected HTTP/JSON service. POST /v1/analyze
// returns the analysis report with miss attribution, /v1/transform
// the restructured source with its translation-validation report,
// /v1/simulate cache statistics under any simulator configuration;
// GET /healthz, /readyz, /metrics and /v1/cache/stats expose
// liveness, drain state, counters, and the artifact cache.
//
// Every request runs through the existing machinery rather than
// around it: the pool executes each admitted request with panic
// containment and a private span recorder, core's safe mode degrades
// malformed or adversarial programs into typed JSON errors with the
// failing stage, the VM's step budget and the per-request deadline
// bound runaway programs, and results are cached in the crash-safe
// artifact store keyed by sha256(fsd build ‖ stage ‖ budget ‖ source
// body) — a warm repeat of an identical request to the same build
// never recomputes.
//
// The robustness envelope:
//
//   - Admission control: a bounded worker set plus a bounded queue;
//     past both, requests are rejected with 429 and Retry-After
//     instead of queuing without bound.
//   - Per-client concurrency caps (X-Client-ID header, else the
//     remote host) and request body size limits (413).
//   - A circuit breaker quarantines source hashes that repeatedly
//     panicked the pipeline or blew their step budget — the poison
//     budget, mirroring the fabric's per-cell death budget. Further
//     requests for that hash fast-fail with 422.
//   - Graceful drain: Drain stops admissions, lets in-flight
//     requests finish until the deadline, then cancels their
//     contexts, and flushes the cache index.
//   - Deterministic chaos: faultinject points serve.handler (inside
//     every admitted request), serve.cache (the artifact store's
//     write path), and serve.drain.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"falseshare/internal/artifact"
	"falseshare/internal/core"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/vm"
)

// Stage names: the artifact schema of each endpoint's responses. The
// store keys every entry to the fsd build that wrote it, so a changed
// pipeline starts cold by itself and these never need a bump; the
// "vN" suffixes are historical.
const (
	analyzeSchema   = "fsd/analyze/v1"
	transformSchema = "fsd/transform/v1"
	simulateSchema  = "fsd/simulate/v2"
)

// Options configures a Server. The zero value serves with the
// documented defaults.
type Options struct {
	// Workers bounds concurrently executing requests (default:
	// GOMAXPROCS). Queue bounds requests waiting for a worker
	// (default 64); past both, requests get 429 + Retry-After.
	Workers int
	Queue   int
	// PerClient caps in-flight requests per client — the X-Client-ID
	// header, else the remote host (default 8).
	PerClient int
	// MaxBody is the request body limit in bytes (default 1 MiB).
	MaxBody int64
	// RequestTimeout bounds one request's compile+simulate work
	// (default 60s).
	RequestTimeout time.Duration
	// StepBudget caps VM steps per request (default 200e6). Requests
	// may ask for less, never more.
	StepBudget int64
	// PoisonBudget is the circuit breaker's strike limit: after this
	// many panics or blown budgets, a source hash is quarantined
	// (default 3).
	PoisonBudget int
	// CacheDir enables the artifact response cache; CacheBytes is
	// its LRU eviction budget (0 = unlimited).
	CacheDir   string
	CacheBytes int64
	// Verbose/LogW stream per-request span completions.
	Verbose bool
	LogW    io.Writer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.PerClient <= 0 {
		o.PerClient = 8
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.StepBudget <= 0 {
		o.StepBudget = 200_000_000
	}
	if o.PoisonBudget <= 0 {
		o.PoisonBudget = 3
	}
	if o.LogW == nil {
		o.LogW = os.Stderr
	}
	return o
}

// Server is one fsd instance.
type Server struct {
	opt   Options
	store *artifact.Store
	mux   *http.ServeMux
	hsrv  *http.Server
	start time.Time

	// baseCtx dies when drain gives up waiting: every in-flight
	// request's context is its child.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	slots chan struct{} // admission semaphore: cap == Workers

	mu          sync.Mutex
	queued      int
	clients     map[string]int
	strikes     map[string]int
	quarantined map[string]bool
	draining    bool
	m           metrics
}

// metrics is the /metrics counter set. All access under Server.mu.
type metrics struct {
	Requests        map[string]int64
	Status          map[string]int64
	RejectedQueue   int64
	RejectedClient  int64
	RejectedSize    int64
	Panics          int64
	BudgetBlown     int64
	QuarantineFails int64
	CacheHitServes  int64
}

// New builds a Server, opening (and recovering) the artifact cache
// when configured.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	s := &Server{
		opt:         opt,
		start:       time.Now(),
		slots:       make(chan struct{}, opt.Workers),
		clients:     make(map[string]int),
		strikes:     make(map[string]int),
		quarantined: make(map[string]bool),
	}
	s.m.Requests = make(map[string]int64)
	s.m.Status = make(map[string]int64)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	if opt.CacheDir != "" {
		st, err := artifact.Open(opt.CacheDir, artifact.Options{
			MaxBytes:   opt.CacheBytes,
			FaultPoint: "serve.cache",
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.store = st
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/readyz", s.readyz)
	s.mux.HandleFunc("/metrics", s.metricsHandler)
	s.mux.HandleFunc("/v1/cache/stats", s.cacheStats)
	s.mux.HandleFunc("/v1/analyze", s.api("analyze", analyzeSchema, s.analyze))
	s.mux.HandleFunc("/v1/transform", s.api("transform", transformSchema, s.transform))
	s.mux.HandleFunc("/v1/simulate", s.api("simulate", simulateSchema, s.simulate))
	s.hsrv = &http.Server{
		Handler:     s.mux,
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	return s, nil
}

// Handler exposes the daemon's routes (httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Drain or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	err := s.hsrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Draining reports whether drain has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the daemon down gracefully: stop accepting and fail
// readiness, let in-flight requests finish, and when ctx expires
// cancel whatever is still running (their handlers answer 503/504),
// then flush the cache index. Safe to call once; the listener is
// closed when it returns.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	if ferr := faultinject.Fire(ctx, "serve.drain", ""); ferr != nil {
		fmt.Fprintf(s.opt.LogW, "serve: drain fault: %v\n", ferr)
	}
	err := s.hsrv.Shutdown(ctx)
	// Past the deadline (or immediately, when Shutdown returned
	// clean): cancel anything still computing so handlers observe it.
	s.cancelBase()
	if err != nil {
		// Connections were still alive at the deadline; their
		// handlers are being cancelled — force the sockets closed.
		s.hsrv.Close()
	}
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// CacheCounters snapshots the artifact store (zero when no cache).
func (s *Server) CacheCounters() artifact.Counters { return s.store.Counters() }

// ---- request plumbing ----------------------------------------------

// Envelope is every response's JSON shape. HandlerNs measures the
// handler's own work — cache lookup plus compute — excluding network
// reads and writes; it is also exposed as the X-Handler-Ns header,
// and the warm-cache acceptance bound is measured against it.
type Envelope struct {
	OK        bool            `json:"ok"`
	Cached    bool            `json:"cached,omitempty"`
	HandlerNs int64           `json:"handler_ns"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     *ErrorBody      `json:"error,omitempty"`
}

// ErrorBody is the typed error: the HTTP status, the pipeline stage
// that failed (parse, check, layout, restructure, vm, admission,
// drain, quarantine, ...), and the diagnostic.
type ErrorBody struct {
	Status      int    `json:"status"`
	Stage       string `json:"stage"`
	Reason      string `json:"reason"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

type apiFunc func(ctx context.Context, body []byte, budget int64) (any, error)

// api wraps one endpoint with the full envelope: admission, size and
// client caps, the response cache, the poison breaker, pooled
// execution with panic containment, and typed errors.
func (s *Server) api(name, schema string, fn apiFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.countRequest(name)
		if r.Method != http.MethodPost {
			s.writeError(w, name, time.Now(), &ErrorBody{Status: http.StatusMethodNotAllowed, Stage: "request", Reason: "POST required"})
			return
		}
		if s.Draining() {
			s.writeError(w, name, time.Now(), &ErrorBody{Status: http.StatusServiceUnavailable, Stage: "drain", Reason: "daemon is draining"})
			return
		}

		// Size limit, before any queuing: oversized bodies are cheap
		// to reject.
		r.Body = http.MaxBytesReader(w, r.Body, s.opt.MaxBody)
		body, err := io.ReadAll(r.Body)
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.bump(func(m *metrics) { m.RejectedSize++ })
				s.writeError(w, name, time.Now(), &ErrorBody{
					Status: http.StatusRequestEntityTooLarge,
					Stage:  "admission",
					Reason: fmt.Sprintf("request body exceeds %d bytes", s.opt.MaxBody),
				})
				return
			}
			s.writeError(w, name, time.Now(), &ErrorBody{Status: http.StatusBadRequest, Stage: "request", Reason: "reading body: " + err.Error()})
			return
		}

		// Per-client cap.
		client := clientKey(r)
		if !s.acquireClient(client) {
			s.bump(func(m *metrics) { m.RejectedClient++ })
			w.Header().Set("Retry-After", "1")
			s.writeError(w, name, time.Now(), &ErrorBody{
				Status: http.StatusTooManyRequests,
				Stage:  "admission",
				Reason: fmt.Sprintf("client %q has %d requests in flight (cap %d)", client, s.opt.PerClient, s.opt.PerClient),
			})
			return
		}
		defer s.releaseClient(client)

		// Admission: worker slot or bounded queue, else 429.
		release, ok := s.admit(r.Context())
		if !ok {
			s.bump(func(m *metrics) { m.RejectedQueue++ })
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
			s.writeError(w, name, time.Now(), &ErrorBody{
				Status: http.StatusTooManyRequests,
				Stage:  "admission",
				Reason: "saturated: worker slots and queue are full",
			})
			return
		}
		defer release()

		// The handler clock starts after admission: HandlerNs is the
		// work this request cost, not the time it waited.
		start := time.Now()

		// Per-request observability: a private recorder, carried on
		// the request's context, so concurrent requests don't
		// interleave span trees.
		rec := obs.NewRecorder()
		rec.Verbose = s.opt.Verbose
		rec.LogW = s.opt.LogW
		sp := rec.Begin("serve." + name)
		defer sp.End()

		bodySum := bodyHash(body)
		budget := s.effectiveBudget(body)
		key := fmt.Sprintf("budget=%d|sha256=%s", budget, bodySum)

		// Response cache first: a warm repeat of an identical request
		// is served without touching the pipeline (sub-millisecond).
		if data, ok := s.store.Get(schema, key); ok {
			sp.Set("cached", 1)
			s.bump(func(m *metrics) { m.CacheHitServes++ })
			s.writeEnvelope(w, name, Envelope{OK: true, Cached: true, Result: data}, start, http.StatusOK)
			return
		}

		// Poison breaker: hashes that repeatedly killed workers are
		// fast-failed, exactly like the fabric's per-cell death
		// budget. Checked after the cache: a cached success is proof
		// the input is fine.
		if s.isQuarantined(bodySum) {
			s.bump(func(m *metrics) { m.QuarantineFails++ })
			s.writeError(w, name, start, &ErrorBody{
				Status:      http.StatusUnprocessableEntity,
				Stage:       "quarantine",
				Reason:      fmt.Sprintf("source %s exceeded the poison budget (%d strikes); quarantined", short(bodySum), s.opt.PoisonBudget),
				Quarantined: true,
			})
			return
		}

		// Execute through the pool: panic containment, the
		// pool.worker and serve.handler fault points, span grafting
		// under this request's recorder.
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		ctx = obs.WithRecorder(ctx, rec)
		jobKey := name + "/" + short(bodySum)
		jobs := []pool.Job[json.RawMessage]{{
			Key: jobKey,
			Run: func(ctx context.Context) (json.RawMessage, error) {
				if ferr := faultinject.Fire(ctx, "serve.handler", jobKey); ferr != nil {
					return nil, ferr
				}
				v, err := fn(ctx, body, budget)
				if err != nil {
					return nil, err
				}
				return json.Marshal(v)
			},
		}}
		res, err := pool.RunPolicy(ctx, "serve", 1, pool.Policy{}, jobs)
		if err != nil {
			eb := s.classify(ctx, bodySum, err)
			s.writeError(w, name, start, eb)
			return
		}

		// Cache the response (advisory: a failed put only costs
		// future hits) and answer.
		if perr := s.store.Put(ctx, schema, key, res[0]); perr != nil {
			fmt.Fprintf(s.opt.LogW, "serve: cache put: %v\n", perr)
		}
		s.writeEnvelope(w, name, Envelope{OK: true, Result: res[0]}, start, http.StatusOK)
	}
}

// classify maps a pipeline failure to its typed error, and feeds the
// poison breaker: contained panics and blown step budgets are
// strikes against the source hash.
func (s *Server) classify(ctx context.Context, bodySum string, err error) *ErrorBody {
	cause := err
	if fails := pool.Failures(err); len(fails) > 0 {
		cause = fails[0].Err
	}

	switch {
	case errors.Is(cause, context.DeadlineExceeded):
		return &ErrorBody{Status: http.StatusGatewayTimeout, Stage: "deadline",
			Reason: fmt.Sprintf("request exceeded its deadline (%s)", s.opt.RequestTimeout)}
	case errors.Is(cause, context.Canceled):
		stage, reason := "cancelled", "request cancelled"
		if s.Draining() {
			stage, reason = "drain", "request cancelled by daemon drain"
		}
		return &ErrorBody{Status: http.StatusServiceUnavailable, Stage: stage, Reason: reason}
	}

	var ferr *faultinject.Error
	if errors.As(cause, &ferr) {
		// Injected faults are infrastructure chaos, not the input's
		// fault: typed 500, no poison strike.
		return &ErrorBody{Status: http.StatusInternalServerError, Stage: "fault", Reason: cause.Error()}
	}

	var ie *core.InternalError
	if errors.As(cause, &ie) {
		// A contained compiler panic: the process survived, the
		// request degrades to a typed 500, and the input earns a
		// poison strike.
		s.bump(func(m *metrics) { m.Panics++ })
		s.strike(bodySum)
		return &ErrorBody{Status: http.StatusInternalServerError, Stage: ie.Stage,
			Reason: "internal error (contained panic): " + ie.Value}
	}
	if msg := cause.Error(); strings.HasPrefix(msg, "panic: ") {
		// A panic the pool contained outside core's guards (handler
		// code, simulator): same posture.
		s.bump(func(m *metrics) { m.Panics++ })
		s.strike(bodySum)
		if i := strings.IndexByte(msg, '\n'); i > 0 {
			msg = msg[:i]
		}
		return &ErrorBody{Status: http.StatusInternalServerError, Stage: "handler",
			Reason: "internal error (contained " + msg + ")"}
	}

	var re *vm.RunError
	if errors.As(cause, &re) {
		if strings.Contains(re.Msg, "step budget exceeded") {
			s.bump(func(m *metrics) { m.BudgetBlown++ })
			s.strike(bodySum)
		}
		return &ErrorBody{Status: http.StatusUnprocessableEntity, Stage: "vm", Reason: cause.Error()}
	}

	if stage := core.ErrorStage(cause); stage != "" {
		// The program's fault (parse error, type error, bad layout):
		// a client error, no strike.
		return &ErrorBody{Status: http.StatusUnprocessableEntity, Stage: stage, Reason: cause.Error()}
	}
	var be *badRequestError
	if errors.As(cause, &be) {
		return &ErrorBody{Status: http.StatusBadRequest, Stage: be.stage, Reason: be.Error()}
	}
	return &ErrorBody{Status: http.StatusInternalServerError, Stage: "internal", Reason: cause.Error()}
}

// badRequestError marks malformed request bodies and configurations
// (as opposed to programs that fail to compile).
type badRequestError struct {
	stage string
	err   error
}

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(stage string, err error) error {
	return &badRequestError{stage: stage, err: err}
}

// ---- admission, clients, poison ------------------------------------

// admit acquires a worker slot, waiting in the bounded queue when
// all are busy. False means rejected (queue full) or the request
// died while waiting.
func (s *Server) admit(ctx context.Context) (func(), bool) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	default:
	}
	s.mu.Lock()
	if s.queued >= s.opt.Queue || s.draining {
		s.mu.Unlock()
		return nil, false
	}
	s.queued++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
	}()
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	case <-ctx.Done():
		return nil, false
	case <-s.baseCtx.Done():
		return nil, false
	}
}

// retryAfter estimates (in whole seconds, at least 1) when a
// rejected client should try again: the queue's depth over the
// worker count, bounded to stay a hint rather than a promise.
func (s *Server) retryAfter() int {
	s.mu.Lock()
	q := s.queued
	s.mu.Unlock()
	sec := 1 + q/s.opt.Workers
	if sec > 30 {
		sec = 30
	}
	return sec
}

func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) acquireClient(client string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients[client] >= s.opt.PerClient {
		return false
	}
	s.clients[client]++
	return true
}

func (s *Server) releaseClient(client string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients[client]--; s.clients[client] <= 0 {
		delete(s.clients, client)
	}
}

func (s *Server) isQuarantined(bodySum string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined[bodySum]
}

// strike charges one poison strike against a source hash; at the
// budget, the hash is quarantined for the daemon's lifetime.
func (s *Server) strike(bodySum string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.strikes[bodySum]++
	if s.strikes[bodySum] >= s.opt.PoisonBudget {
		s.quarantined[bodySum] = true
	}
}

// requestCtx derives the request's working context: bounded by the
// per-request timeout, the client connection, and the drain
// deadline (baseCtx) — whichever dies first.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// effectiveBudget is the VM step budget for one request: the server
// cap, lowered (never raised) by the request's step_budget field.
func (s *Server) effectiveBudget(body []byte) int64 {
	var req struct {
		StepBudget int64 `json:"step_budget"`
	}
	budget := s.opt.StepBudget
	if json.Unmarshal(body, &req) == nil && req.StepBudget > 0 && req.StepBudget < budget {
		budget = req.StepBudget
	}
	return budget
}

// ---- responses and counters ----------------------------------------

func (s *Server) countRequest(name string) {
	s.mu.Lock()
	s.m.Requests[name]++
	s.mu.Unlock()
}

func (s *Server) bump(f func(*metrics)) {
	s.mu.Lock()
	f(&s.m)
	s.mu.Unlock()
}

func (s *Server) countStatus(status int) {
	class := fmt.Sprintf("%dxx", status/100)
	s.mu.Lock()
	s.m.Status[class]++
	s.mu.Unlock()
}

func (s *Server) writeEnvelope(w http.ResponseWriter, name string, env Envelope, start time.Time, status int) {
	env.HandlerNs = time.Since(start).Nanoseconds()
	s.countStatus(status)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Handler-Ns", strconv.FormatInt(env.HandlerNs, 10))
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&env)
}

func (s *Server) writeError(w http.ResponseWriter, name string, start time.Time, eb *ErrorBody) {
	s.writeEnvelope(w, name, Envelope{Error: eb}, start, eb.Status)
}

func bodyHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// ---- health, metrics, cache stats ----------------------------------

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	requests := make(map[string]int64, len(s.m.Requests))
	for k, v := range s.m.Requests {
		requests[k] = v
	}
	status := make(map[string]int64, len(s.m.Status))
	for k, v := range s.m.Status {
		status[k] = v
	}
	body := map[string]any{
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"draining":  s.draining,
		"in_flight": len(s.slots),
		"queued":    s.queued,
		"requests":  requests,
		"status":    status,
		"rejected": map[string]int64{
			"queue":  s.m.RejectedQueue,
			"client": s.m.RejectedClient,
			"size":   s.m.RejectedSize,
		},
		"panics_contained":     s.m.Panics,
		"budget_blown":         s.m.BudgetBlown,
		"quarantined_hashes":   len(s.quarantined),
		"quarantine_fastfails": s.m.QuarantineFails,
		"cache_hit_serves":     s.m.CacheHitServes,
	}
	s.mu.Unlock()
	body["cache"] = s.store.Counters()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) cacheStats(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":  true,
		"dir":      s.store.Dir(),
		"counters": s.store.Counters(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
