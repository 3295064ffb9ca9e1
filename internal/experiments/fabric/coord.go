package fabric

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"falseshare/internal/experiments"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is how many local worker processes to spawn. Zero with a
	// Listen address means external workers only.
	Workers int
	// WorkerCmd is the argv used to spawn a worker (default: the
	// current executable with a single "-worker" argument). Tests
	// override it to re-exec the test binary.
	WorkerCmd []string
	// Listen, when non-empty, accepts external workers over TCP
	// (started with fsexp -worker -connect <addr>).
	Listen string
	// Spec and Set describe the grid; every worker re-enumerates it
	// from these, so they must cover every section the run dispatches.
	Spec experiments.ConfigSpec
	Set  experiments.SectionSet
	// Faults is the fault spec propagated to every worker (satellite:
	// a -faults spec must not silently apply only to the parent).
	Faults string
	// Policy supplies the pool's failure semantics: Retries/Backoff
	// bound error retries (transient errors only, exponential
	// backoff), FailFast cancels the grid on the first hard failure,
	// JobTimeout is the per-cell deadline (a cell exceeding it marks
	// its worker hung: killed and the cell reassigned).
	Policy pool.Policy
	// MaxDeaths bounds reassignment per cell: a cell that kills this
	// many workers fails instead of killing the whole fleet
	// (default 3).
	MaxDeaths int
	// Stderr receives spawned workers' stderr (default os.Stderr).
	Stderr io.Writer
	// Recorder receives the fabric's own telemetry spans — worker
	// lifetimes, reassignments, retries. It is deliberately separate
	// from the experiment recorder: fabric scheduling is
	// nondeterministic, and folding it into the figure manifests would
	// break their byte-identity contract.
	Recorder *obs.Recorder
}

func (o Options) maxDeaths() int {
	if o.MaxDeaths <= 0 {
		return 3
	}
	return o.MaxDeaths
}

func (o Options) stderr() io.Writer {
	if o.Stderr == nil {
		return os.Stderr
	}
	return o.Stderr
}

// Stats is a snapshot of the fabric's counters.
type Stats struct {
	// Spawned counts worker processes started (including respawns);
	// Attached counts TCP workers accepted; Deaths counts workers that
	// died or were killed (hung, corrupt, chaos).
	Spawned  int
	Attached int
	Deaths   int
	// Cells counts dispatched cell executions (stored cells never
	// reach the fabric); Reassigned counts cells re-queued after
	// losing their worker; Retries counts error-retries.
	Cells      int
	Reassigned int
	Retries    int
}

// Summary renders the one-line run summary fsexp prints.
func (s Stats) Summary() string {
	return fmt.Sprintf(
		"fabric: workers spawned=%d attached=%d deaths=%d | cells=%d reassigned=%d retries=%d",
		s.Spawned, s.Attached, s.Deaths, s.Cells, s.Reassigned, s.Retries)
}

// Coordinator shards cells across worker processes. It implements
// experiments.CellRunner, so plugging it into Config.Runner routes
// every driver fan-out through the fabric.
type Coordinator struct {
	opt  Options
	ctx  context.Context
	stop context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[int]*workerHandle
	nextID  int
	live    int
	spawned int // spawn attempts, bounded by 3×Workers+2
	run     *cellRun
	stats   Stats
	closed  bool

	listener net.Listener
	wg       sync.WaitGroup

	span *obs.Span // fabric root span on opt.Recorder
}

// workerHandle is the coordinator's view of one worker.
type workerHandle struct {
	id      int
	conn    *Conn
	cmd     *exec.Cmd // nil for TCP workers
	ready   chan struct{}
	results chan *Frame
	done    chan struct{} // closed when the reader exits: worker gone
	span    *obs.Span

	mu        sync.Mutex
	err       error // why the reader exited; nil until then
	lastHeard time.Time
	killed    bool
}

func (w *workerHandle) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *workerHandle) lastErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *workerHandle) heard() {
	w.mu.Lock()
	w.lastHeard = time.Now()
	w.mu.Unlock()
}

func (w *workerHandle) silence() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Since(w.lastHeard)
}

// kill severs the worker: the connection closes (unblocking the
// reader) and a spawned process is SIGKILLed. Idempotent.
func (w *workerHandle) kill() {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	w.mu.Unlock()
	w.conn.Close()
	if w.cmd != nil && w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}

// wasKilled reports whether the coordinator has severed the worker.
func (w *workerHandle) wasKilled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.killed
}

// cellRun is one RunCells invocation in flight.
type cellRun struct {
	keys    []string
	state   []cellState
	queue   []int // indices awaiting dispatch
	pending int   // cells without a final outcome (incl. backoff + outstanding)
	closed  bool  // results no longer accepted (cancelled / returned)
	results []experiments.CellResult
}

type cellState struct {
	attempts int // error retries so far
	deaths   int // workers lost while owning this cell
	final    bool
}

// NewCoordinator builds a Coordinator; Start launches it.
func NewCoordinator(opt Options) *Coordinator {
	c := &Coordinator{opt: opt, workers: map[int]*workerHandle{}}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Start spawns the local workers and, if configured, starts the TCP
// listener. ctx bounds the coordinator's lifetime; cancelling it
// aborts dispatch (Close still reaps and merges).
func (c *Coordinator) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx, c.stop = context.WithCancel(ctx)
	c.span = c.opt.Recorder.Begin("fabric")
	c.span.Set("workers", int64(c.opt.Workers))
	if c.opt.Listen != "" {
		ln, err := net.Listen("tcp", c.opt.Listen)
		if err != nil {
			return fmt.Errorf("fabric: listen: %w", err)
		}
		c.listener = ln
		c.wg.Add(1)
		go c.acceptLoop(ln)
	}
	for i := 0; i < c.opt.Workers; i++ {
		if err := c.spawnWorker(); err != nil {
			c.Close()
			return err
		}
	}
	if c.opt.Workers == 0 && c.listener == nil {
		return fmt.Errorf("fabric: no workers configured (need -workers or -listen)")
	}
	return nil
}

// Addr returns the listener address ("" when not listening).
func (c *Coordinator) Addr() string {
	if c.listener == nil {
		return ""
	}
	return c.listener.Addr().String()
}

// Stats returns a snapshot of the fabric counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// workerArgv resolves the spawn command.
func (c *Coordinator) workerArgv() ([]string, error) {
	if len(c.opt.WorkerCmd) > 0 {
		return c.opt.WorkerCmd, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("fabric: resolve worker executable: %w", err)
	}
	return []string{exe, "-worker"}, nil
}

// spawnWorker starts one local worker process and its goroutines.
func (c *Coordinator) spawnWorker() error {
	argv, err := c.workerArgv()
	if err != nil {
		return err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = c.opt.stderr()
	setProcAttr(cmd)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("fabric: spawn worker: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("fabric: spawn worker: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fabric: spawn worker: %w", err)
	}
	conn := NewConn(stdout, stdin)
	c.mu.Lock()
	c.spawned++
	c.stats.Spawned++
	c.mu.Unlock()
	c.attach(conn, cmd)
	return nil
}

// acceptLoop admits external TCP workers.
func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		closed := c.closed
		if !closed {
			c.stats.Attached++
		}
		c.mu.Unlock()
		if closed {
			conn.Close()
			continue
		}
		c.attach(NewConn(conn, conn), nil)
	}
}

// attach registers a connected worker and launches its goroutines:
// reader (routes frames, tracks liveness), pinger (heartbeats +
// dead-silence detection), driver (pulls cells and runs the
// assignment protocol).
func (c *Coordinator) attach(conn *Conn, cmd *exec.Cmd) {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	w := &workerHandle{
		id:      id,
		conn:    conn,
		cmd:     cmd,
		ready:   make(chan struct{}),
		results: make(chan *Frame, 1),
		done:    make(chan struct{}),
	}
	w.lastHeard = time.Now()
	c.workers[id] = w
	c.live++
	if c.span != nil {
		w.span = c.span.Child(fmt.Sprintf("worker:%d", id))
		if cmd == nil {
			w.span.Set("tcp", 1)
		}
	}
	c.mu.Unlock()

	hello := &Frame{
		Type:   TypeHello,
		Spec:   &c.opt.Spec,
		Set:    &c.opt.Set,
		Faults: c.opt.Faults,
	}
	if err := conn.Write(hello); err != nil {
		obs.LogfCtx(c.ctx, "fabric: worker %d: hello: %v", id, err)
		w.kill()
	}
	c.wg.Add(3)
	go c.readLoop(w)
	go c.pingLoop(w)
	go c.driveLoop(w)
	if cmd != nil {
		// Reap the process whenever it exits, so no zombies accumulate
		// regardless of which path killed it.
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			cmd.Wait()
		}()
	}
}

// readLoop routes a worker's frames until the connection dies.
func (c *Coordinator) readLoop(w *workerHandle) {
	defer c.wg.Done()
	defer close(w.done)
	readyClosed := false
	for {
		f, err := w.conn.Read()
		if err != nil {
			w.setErr(err)
			return
		}
		w.heard()
		switch f.Type {
		case TypeReady:
			if !readyClosed {
				readyClosed = true
				close(w.ready)
			}
		case TypeResult:
			select {
			case w.results <- f:
			default:
				// No one waiting for this result (stale run, duplicate).
				obs.LogfCtx(c.ctx, "fabric: worker %d: dropping unexpected result %s", w.id, f.Key)
			}
		case TypePong:
			// liveness only; heard() already recorded it
		default:
			obs.LogfCtx(c.ctx, "fabric: worker %d: ignoring frame %q", w.id, f.Type)
		}
	}
}

// pingLoop pings the worker every 500ms and kills it after 10s of
// silence — the wedged-process detector (a worker busy in a cell
// still answers pings from its read loop; only a truly stuck or
// vanished process goes silent).
func (c *Coordinator) pingLoop(w *workerHandle) {
	defer c.wg.Done()
	const deadAfter = 10 * time.Second
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-c.ctx.Done():
			return
		case <-t.C:
			if w.silence() > deadAfter {
				obs.LogfCtx(c.ctx, "fabric: worker %d: silent for %s; killing", w.id, deadAfter)
				w.kill()
				return
			}
			if err := w.conn.Write(&Frame{Type: TypePing}); err != nil {
				w.kill()
				return
			}
		}
	}
}

// driveLoop owns one worker's assignment stream: wait for readiness,
// then pull cells and run the assignment protocol until the worker or
// the coordinator dies. On worker death it requeues the owned cell,
// accounts the loss, and respawns a replacement if the budget allows.
func (c *Coordinator) driveLoop(w *workerHandle) {
	defer c.wg.Done()
	alive := c.awaitReady(w)
	for alive {
		idx, run, ok := c.nextCell()
		if !ok {
			break
		}
		alive = c.assign(w, run, idx)
	}
	c.workerGone(w)
}

// awaitReady blocks until the worker acknowledged hello (or died).
func (c *Coordinator) awaitReady(w *workerHandle) bool {
	select {
	case <-w.ready:
		return true
	case <-w.done:
		return false
	case <-c.ctx.Done():
		return false
	}
}

// nextCell blocks until a dispatchable cell exists, the coordinator
// closes, or the context ends. ok=false means the driver should exit.
func (c *Coordinator) nextCell() (int, *cellRun, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || c.ctx.Err() != nil {
			return 0, nil, false
		}
		if r := c.run; r != nil && !r.closed && len(r.queue) > 0 {
			idx := r.queue[0]
			r.queue = r.queue[1:]
			return idx, r, true
		}
		c.cond.Wait()
	}
}

// assign runs the protocol for one cell on one worker. It returns
// false when the worker is gone (the driver exits and the cell has
// been requeued or failed).
func (c *Coordinator) assign(w *workerHandle, run *cellRun, idx int) bool {
	key := run.keys[idx]
	c.mu.Lock()
	c.stats.Cells++
	c.mu.Unlock()

	if err := w.conn.Write(&Frame{Type: TypeAssign, Key: key}); err != nil {
		c.requeueDeath(run, idx, w, fmt.Errorf("fabric: worker %d: assign: %w", w.id, err))
		return false
	}
	// Chaos: coord.kill SIGKILLs the worker that just received this
	// assignment — a deterministic mid-cell worker death. Count/match
	// live on the coordinator's rule counters, so "kill exactly one
	// worker, once" is expressible (worker-side rules re-fire in
	// replacement processes).
	if ferr := faultinject.Fire(c.ctx, "coord.kill", key); ferr != nil {
		obs.LogfCtx(c.ctx, "fabric: chaos: killing worker %d mid-cell (%s)", w.id, key)
		w.kill()
	}

	var deadline <-chan time.Time
	if c.opt.Policy.JobTimeout > 0 {
		t := time.NewTimer(c.opt.Policy.JobTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case f := <-w.results:
		if w.wasKilled() {
			// A severed worker's report is void: the closed link
			// cancels its running cell, which may still answer with
			// that cancellation before the SIGKILL lands. The cell is
			// reassigned like any other mid-cell death.
			c.requeueDeath(run, idx, w, fmt.Errorf("fabric: worker %d: killed mid-cell", w.id))
			return false
		}
		if f.Key != key {
			c.requeueDeath(run, idx, w, fmt.Errorf("fabric: worker %d: result for %q while %q assigned", w.id, f.Key, key))
			w.kill()
			return false
		}
		c.complete(run, idx, f)
		return true
	case <-w.done:
		err := w.lastErr()
		if err == nil {
			err = fmt.Errorf("fabric: worker %d: connection closed", w.id)
		}
		c.requeueDeath(run, idx, w, err)
		return false
	case <-deadline:
		c.requeueDeath(run, idx, w, fmt.Errorf("fabric: worker %d: cell %s exceeded %s deadline", w.id, key, c.opt.Policy.JobTimeout))
		w.kill()
		return false
	case <-c.ctx.Done():
		// The run is being abandoned; RunCells marks the leftovers.
		return false
	}
}

// complete records one cell's reported outcome: success stores the
// payload into the run; a transient error within the retry budget
// requeues with exponential backoff; anything else is final.
func (c *Coordinator) complete(run *cellRun, idx int, f *Frame) {
	err := frameError(f)
	c.mu.Lock()
	defer c.mu.Unlock()
	if run.closed || run.state[idx].final {
		return
	}
	st := &run.state[idx]
	if err != nil {
		if pool.Transient(err) && st.attempts < c.opt.Policy.Retries {
			st.attempts++
			c.stats.Retries++
			if c.span != nil {
				c.span.Count("retries", 1)
			}
			run.results[idx].Retries = st.attempts
			backoff := c.opt.Policy.RetryDelay(st.attempts - 1)
			obs.LogfCtx(c.ctx, "fabric: retrying %s after transient failure (attempt %d): %v", run.keys[idx], st.attempts, err)
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.requeueAfter(run, idx, backoff)
			}()
			return
		}
		c.finalize(run, idx, experiments.CellResult{Key: run.keys[idx], Err: err, Retries: st.attempts})
		return
	}
	res := experiments.CellResult{
		Key:     run.keys[idx],
		Data:    f.Data,
		Spans:   f.Spans,
		Retries: st.attempts,
	}
	if f.Events != nil {
		res.Events = *f.Events
	}
	c.finalize(run, idx, res)
}

// finalize records a cell's final outcome. Callers hold c.mu.
func (c *Coordinator) finalize(run *cellRun, idx int, res experiments.CellResult) {
	if run.state[idx].final {
		return
	}
	run.state[idx].final = true
	run.results[idx] = res
	run.pending--
	if res.Err != nil && c.opt.Policy.FailFast {
		c.abortLocked(run, fmt.Errorf("%w: fail-fast after %s", pool.ErrSkipped, res.Key))
	}
	c.cond.Broadcast()
}

// abortLocked marks every queued (not yet assigned) cell of the run
// as skipped. Outstanding assignments finish naturally and report
// their real outcome, mirroring the local pool's fail-fast drain.
func (c *Coordinator) abortLocked(run *cellRun, err error) {
	for _, idx := range run.queue {
		if run.state[idx].final {
			continue
		}
		run.state[idx].final = true
		run.results[idx] = experiments.CellResult{Key: run.keys[idx], Err: err}
		run.pending--
	}
	run.queue = nil
	c.cond.Broadcast()
}

// requeueAfter re-dispatches a cell after its retry backoff.
func (c *Coordinator) requeueAfter(run *cellRun, idx int, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.ctx.Done():
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if run.closed || run.state[idx].final {
		return
	}
	run.queue = append(run.queue, idx)
	c.cond.Broadcast()
}

// requeueDeath handles a cell orphaned by its worker's death: bounded
// reassignment, then failure — one poison cell must not consume the
// whole fleet.
func (c *Coordinator) requeueDeath(run *cellRun, idx int, w *workerHandle, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if run.closed || run.state[idx].final {
		return
	}
	st := &run.state[idx]
	st.deaths++
	c.stats.Reassigned++
	if c.span != nil {
		c.span.Count("reassigned", 1)
	}
	if st.deaths > c.opt.maxDeaths() {
		c.finalize(run, idx, experiments.CellResult{
			Key: run.keys[idx],
			Err: fmt.Errorf("fabric: cell %s lost %d workers (last: %w)", run.keys[idx], st.deaths, cause),
		})
		return
	}
	obs.LogfCtx(c.ctx, "fabric: reassigning %s after worker %d died: %v", run.keys[idx], w.id, cause)
	// Front of the queue: a cell that already lost a worker should not
	// wait behind the whole backlog.
	run.queue = append([]int{idx}, run.queue...)
	c.cond.Broadcast()
}

// workerGone retires a worker handle: accounting, telemetry, and a
// replacement spawn when the budget allows. When the last worker dies
// with no replacement possible, the current run's undispatched cells
// fail — never hang.
func (c *Coordinator) workerGone(w *workerHandle) {
	w.kill()
	c.mu.Lock()
	if _, ok := c.workers[w.id]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.workers, w.id)
	c.live--
	if !c.closed {
		// A worker retiring during shutdown is not a death — only
		// losing one mid-run counts.
		c.stats.Deaths++
	}
	if w.span != nil {
		if werr := w.lastErr(); werr != nil && werr != io.EOF {
			w.span.Fail(werr)
		}
		w.span.End()
	}
	// Replacements are bounded at 2×Workers+2 across the run, so a
	// crash loop terminates.
	respawn := !c.closed && c.ctx.Err() == nil && w.cmd != nil &&
		c.spawned < 3*c.opt.Workers+2
	lastLight := c.live == 0 && !respawn && c.listener == nil
	run := c.run
	c.mu.Unlock()

	if respawn {
		if err := c.spawnWorker(); err != nil {
			obs.LogfCtx(c.ctx, "fabric: respawn: %v", err)
			c.mu.Lock()
			lastLight = c.live == 0 && c.listener == nil
			c.mu.Unlock()
		}
	}
	if lastLight && run != nil {
		c.mu.Lock()
		if c.run == run && !run.closed {
			c.abortLocked(run, fmt.Errorf("fabric: all workers dead"))
		}
		c.mu.Unlock()
	}
}

// RunCells implements experiments.CellRunner: queue every cell and
// wait until each has a final outcome (or the context dies, which
// marks the leftovers skipped).
func (c *Coordinator) RunCells(ctx context.Context, section string, keys []string) ([]experiments.CellResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := &cellRun{
		keys:    keys,
		state:   make([]cellState, len(keys)),
		results: make([]experiments.CellResult, len(keys)),
		pending: len(keys),
	}
	for i := range keys {
		run.queue = append(run.queue, i)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("fabric: coordinator closed")
	}
	if run.pending == 0 {
		c.mu.Unlock()
		return run.results, nil
	}
	if c.run != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("fabric: a run is already active")
	}
	c.run = run
	c.cond.Broadcast()
	c.mu.Unlock()

	// Wake the wait loop when the caller's context dies.
	cancelDone := make(chan struct{})
	defer close(cancelDone)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		case <-cancelDone:
		}
	}()

	c.mu.Lock()
	for run.pending > 0 && ctx.Err() == nil && c.ctx.Err() == nil && !c.closed {
		c.cond.Wait()
	}
	if run.pending > 0 {
		// Cancelled (SIGINT, coordinator shutdown): mark what never got
		// a final outcome as skipped, exactly like the local pool's
		// drain.
		cause := ctx.Err()
		if cause == nil {
			cause = c.ctx.Err()
		}
		if cause == nil {
			cause = context.Canceled
		}
		for i := range run.state {
			if !run.state[i].final {
				run.state[i].final = true
				run.results[i] = experiments.CellResult{
					Key: keys[i],
					Err: fmt.Errorf("%w: %w", pool.ErrSkipped, cause),
				}
				run.pending--
			}
		}
	}
	run.closed = true
	c.run = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	return run.results, nil
}

// Close shuts the fabric down: shutdown frames to every worker, a
// bounded wait for them to exit, then SIGKILL for stragglers. Safe to
// call more than once.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.run != nil {
		c.run.closed = true
	}
	workers := make([]*workerHandle, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	if c.listener != nil {
		c.listener.Close()
	}
	for _, w := range workers {
		w.conn.Write(&Frame{Type: TypeShutdown})
	}
	// Give workers a moment to exit on their own...
	deadline := time.After(3 * time.Second)
	for _, w := range workers {
		select {
		case <-w.done:
		case <-deadline:
		}
	}
	// ...then reap whatever is left.
	for _, w := range workers {
		w.kill()
	}
	if c.stop != nil {
		c.stop()
	}
	c.wg.Wait()
	if c.span != nil {
		c.span.End()
	}
	return nil
}

// Kill is the emergency stop (second SIGINT): SIGKILL every spawned
// worker immediately, no draining, no waiting — but no orphans
// either. Safe to call from a signal handler at any point after
// Start, including concurrently with Close.
func (c *Coordinator) Kill() {
	c.mu.Lock()
	workers := make([]*workerHandle, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
	c.mu.Unlock()
	for _, w := range workers {
		w.kill()
	}
	if c.listener != nil {
		c.listener.Close()
	}
}
