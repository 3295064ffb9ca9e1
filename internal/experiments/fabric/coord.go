package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments"
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
	// JobTimeout bounds each cell from its dispatch (0: none). A cell
	// exceeding it marks its worker hung: the worker is killed and the
	// cell dispatched again, like a cell whose worker died.
	JobTimeout time.Duration
	// MaxDeaths bounds re-dispatch per cell: a cell that loses more
	// workers than this fails instead of killing the whole fleet
	// (default 3).
	MaxDeaths int
	// Stderr receives spawned workers' stderr and the coordinator's
	// refusals of workers of another build (default os.Stderr).
	Stderr io.Writer
	// Recorder receives the fabric's own telemetry spans — worker
	// lifetimes and reassignments. It is deliberately separate
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
	// Cells counts dispatched cell executions, re-dispatches included
	// (stored cells never reach the fabric); Reassigned counts cells
	// dispatched again after losing their worker.
	Cells      int
	Reassigned int
}

// Summary renders the one-line run summary fsexp prints.
func (s Stats) Summary() string {
	return fmt.Sprintf(
		"fabric: workers spawned=%d attached=%d deaths=%d | cells=%d reassigned=%d",
		s.Spawned, s.Attached, s.Deaths, s.Cells, s.Reassigned)
}

// Coordinator leases worker processes to cells. It implements
// experiments.CellRunner: each cell is a pool job whose RunCell waits
// for an idle worker, so plugging it into Config.Runner runs every
// driver fan-out on the fabric under the experiment pool's policy.
// The coordinator itself only manages processes — spawning, TCP
// attach, heartbeats, the assign protocol, respawns — and re-dispatches
// a cell whose worker is lost.
type Coordinator struct {
	opt  Options
	ctx  context.Context
	stop context.CancelFunc

	// requests hands each dispatch to the next idle worker's driver.
	requests chan request
	// gone closes when the last worker is lost and no replacement or
	// listener remains: waiting and later dispatches then fail at once.
	gone chan struct{}

	mu      sync.Mutex
	workers map[int]*workerHandle
	nextID  int
	live    int
	spawned int // spawn attempts, bounded by 3×Workers+2
	stats   Stats
	closed  bool

	listener net.Listener
	wg       sync.WaitGroup

	span *obs.Span // fabric root span on opt.Recorder
}

// request is one dispatch of a cell; its driver answers on reply,
// which is buffered so a caller that gave up never blocks the driver.
type request struct {
	key   string
	reply chan outcome
}

// outcome is how one dispatch ended: the worker's report (res, err),
// or lost when the worker died, hung or broke protocol first.
type outcome struct {
	res  experiments.CellResult
	err  error
	lost error
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

// NewCoordinator builds a Coordinator; Start launches it.
func NewCoordinator(opt Options) *Coordinator {
	return &Coordinator{
		opt:      opt,
		workers:  map[int]*workerHandle{},
		requests: make(chan request),
		gone:     make(chan struct{}),
	}
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
// dead-silence detection), driver (takes dispatches and runs the
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
	w.span = c.span.Child(fmt.Sprintf("worker:%d", id))
	if cmd == nil {
		w.span.Set("tcp", 1)
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
				if err := c.admit(w, f.Build); err != nil {
					w.setErr(err)
					return
				}
				readyClosed = true
				close(w.ready)
			}
		case TypeResult:
			select {
			case w.results <- f:
			default:
				// No one waiting for this result (a duplicate).
				obs.LogfCtx(c.ctx, "fabric: worker %d: dropping unexpected result %s", w.id, f.Key)
			}
		case TypePong:
			// liveness only; heard() already recorded it
		default:
			obs.LogfCtx(c.ctx, "fabric: worker %d: ignoring frame %q", w.id, f.Type)
		}
	}
}

// admit checks a ready worker's build against the coordinator's own.
// The coordinator stores every result under its own build identity, so
// a worker built from other code, or one that names no build, could
// store figures this build never computed: it is refused, with both
// identities logged, before it is assigned a cell.
func (c *Coordinator) admit(w *workerHandle, build string) error {
	own, err := artifact.BuildID()
	if err == nil && build == own {
		return nil
	}
	if err != nil {
		own = err.Error()
	}
	if build == "" {
		build = "(none)"
	}
	err = fmt.Errorf("fabric: refusing worker %d: its build %s is not this build %s", w.id, build, own)
	fmt.Fprintln(c.opt.stderr(), err)
	return err
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
// then take the next dispatch and run the assignment protocol until
// the worker is lost or the coordinator stops. Every dispatch taken
// is answered.
func (c *Coordinator) driveLoop(w *workerHandle) {
	defer c.wg.Done()
	defer c.workerGone(w)
	select {
	case <-w.ready:
	case <-w.done:
		return
	case <-c.ctx.Done():
		return
	}
	for {
		select {
		case req := <-c.requests:
			out := c.assign(w, req.key)
			req.reply <- out
			if out.lost != nil || c.ctx.Err() != nil {
				return
			}
		case <-w.done:
			return
		case <-c.ctx.Done():
			return
		}
	}
}

// assign runs the protocol for one cell on one worker.
func (c *Coordinator) assign(w *workerHandle, key string) outcome {
	c.mu.Lock()
	c.stats.Cells++
	c.mu.Unlock()

	if err := w.conn.Write(&Frame{Type: TypeAssign, Key: key}); err != nil {
		return outcome{lost: fmt.Errorf("fabric: worker %d: assign: %w", w.id, err)}
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
	if c.opt.JobTimeout > 0 {
		t := time.NewTimer(c.opt.JobTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case f := <-w.results:
		switch {
		case w.wasKilled():
			// A severed worker's report is void: the closed link
			// cancels its running cell, which may still answer with
			// that cancellation before the SIGKILL lands.
			return outcome{lost: fmt.Errorf("fabric: worker %d: killed mid-cell", w.id)}
		case f.Key != key:
			w.kill()
			return outcome{lost: fmt.Errorf("fabric: worker %d: result for %q while %q assigned", w.id, f.Key, key)}
		case f.Err != "":
			return outcome{err: frameError(f)}
		case f.Result == nil:
			return outcome{err: fmt.Errorf("fabric: worker %d: result for %s carries no payload", w.id, key)}
		}
		return outcome{res: *f.Result}
	case <-w.done:
		err := w.lastErr()
		if err == nil {
			err = errors.New("connection closed")
		}
		return outcome{lost: fmt.Errorf("fabric: worker %d: %w", w.id, err)}
	case <-deadline:
		w.kill()
		return outcome{lost: fmt.Errorf("fabric: worker %d: cell %s exceeded %s deadline", w.id, key, c.opt.JobTimeout)}
	case <-c.ctx.Done():
		return outcome{err: c.stopped()}
	}
}

// stopped is the error of a dispatch the coordinator's shutdown ended.
func (c *Coordinator) stopped() error {
	return fmt.Errorf("fabric: coordinator stopped: %w", c.ctx.Err())
}

// workerGone retires a worker handle: accounting, telemetry, and a
// replacement spawn when the budget allows. When the last worker is
// lost with no replacement or listener left, gone closes, so no
// dispatch waits for a worker that will never come.
func (c *Coordinator) workerGone(w *workerHandle) {
	w.kill()
	c.mu.Lock()
	delete(c.workers, w.id)
	c.live--
	if !c.closed {
		// Only a worker lost mid-run counts as a death and fails its
		// span; one retiring at shutdown does neither.
		c.stats.Deaths++
		if werr := w.lastErr(); werr != nil && werr != io.EOF {
			w.span.Fail(werr)
		}
	}
	w.span.End()
	// Replacements are bounded at 2×Workers+2 across the run, so a
	// crash loop terminates.
	respawn := !c.closed && c.ctx.Err() == nil && w.cmd != nil &&
		c.spawned < 3*c.opt.Workers+2
	c.mu.Unlock()

	if respawn {
		if err := c.spawnWorker(); err != nil {
			obs.LogfCtx(c.ctx, "fabric: respawn: %v", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == 0 && c.listener == nil {
		select {
		case <-c.gone:
		default:
			close(c.gone)
		}
	}
}

// RunCell implements experiments.CellRunner: hand the cell to the next
// idle worker and wait for its report. A cell whose worker is lost
// mid-cell — dead, hung past JobTimeout, or off-protocol — is
// dispatched again, behind the cells already waiting, until it has
// lost MaxDeaths workers: one poison cell must not consume the fleet.
func (c *Coordinator) RunCell(ctx context.Context, key string) (experiments.CellResult, error) {
	for deaths := 1; ; deaths++ {
		reply := make(chan outcome, 1)
		select {
		case c.requests <- request{key: key, reply: reply}:
		case <-c.gone:
			return experiments.CellResult{}, errors.New("fabric: all workers dead")
		case <-c.ctx.Done():
			return experiments.CellResult{}, c.stopped()
		case <-ctx.Done():
			return experiments.CellResult{}, ctx.Err()
		}
		var out outcome
		select {
		case out = <-reply:
		case <-ctx.Done():
			return experiments.CellResult{}, ctx.Err()
		}
		if out.lost == nil {
			return out.res, out.err
		}
		c.mu.Lock()
		c.stats.Reassigned++
		c.mu.Unlock()
		c.span.Count("reassigned", 1)
		if deaths > c.opt.maxDeaths() {
			return experiments.CellResult{}, fmt.Errorf("fabric: cell %s lost %d workers (last: %w)", key, deaths, out.lost)
		}
		obs.LogfCtx(c.ctx, "fabric: reassigning %s: %v", key, out.lost)
	}
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
	workers := make([]*workerHandle, 0, len(c.workers))
	for _, w := range c.workers {
		workers = append(workers, w)
	}
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
	c.span.End()
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
