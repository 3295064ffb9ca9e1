package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"falseshare/internal/artifact"
	"falseshare/internal/experiments"
	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
)

// RunWorker speaks the worker side of the protocol over an arbitrary
// byte stream (stdin/stdout in spawn mode, a TCP connection in
// -connect mode). It blocks until the coordinator shuts the link down
// — a shutdown frame, or the stream closing (a spawned worker whose
// coordinator died sees stdin EOF and exits; no orphans).
//
// The worker enumerates the full cell grid from the hello frame's
// spec before accepting assignments and runs one cell at a time. It
// keeps nothing on disk: each result frame carries the cell's whole
// payload, and the coordinator's process stores it.
func RunWorker(in io.Reader, out io.Writer) error {
	conn := NewConn(in, out)
	hello, err := conn.Read()
	if err != nil {
		return fmt.Errorf("fabric: worker: reading hello: %w", err)
	}
	if hello.Type != TypeHello || hello.Spec == nil || hello.Set == nil {
		return fmt.Errorf("fabric: worker: expected hello, got %q", hello.Type)
	}
	if hello.Faults != "" {
		set, err := faultinject.Parse(hello.Faults)
		if err != nil {
			return fmt.Errorf("fabric: worker: %w", err)
		}
		faultinject.Enable(set)
	}
	enum, err := experiments.Collect(experiments.Config{ConfigSpec: *hello.Spec}, *hello.Set)
	if err != nil {
		return fmt.Errorf("fabric: worker: %w", err)
	}
	// An unreadable executable reports no build, which the coordinator
	// refuses like another build's.
	build, _ := artifact.BuildID()
	if err := conn.Write(&Frame{Type: TypeReady, Cells: enum.Len(), Build: build}); err != nil {
		return err
	}

	// The read loop stays responsive while a cell runs: assignments
	// queue to a single runner goroutine (cells run serially — the
	// coordinator keeps one cell outstanding per worker, the buffer
	// only decouples the loops), pings answer immediately so a busy
	// worker still proves liveness.
	// One measurement memo for the worker's lifetime: cells that
	// execute a program this worker already measured take its result,
	// as the cells of a local run do.
	ctx, cancel := context.WithCancel(experiments.WithMeasureMemo(context.Background()))
	defer cancel()
	assigns := make(chan *Frame, 4)
	runnerDone := make(chan struct{})
	go func() {
		defer close(runnerDone)
		for a := range assigns {
			runCell(ctx, conn, enum, a)
		}
	}()

	for {
		f, err := conn.Read()
		if err != nil {
			cancel()
			close(assigns)
			<-runnerDone
			if peerGone(err) {
				return nil
			}
			return err
		}
		switch f.Type {
		case TypePing:
			if err := conn.Write(&Frame{Type: TypePong}); err != nil {
				cancel()
				close(assigns)
				<-runnerDone
				if peerGone(err) {
					return nil
				}
				return err
			}
		case TypeAssign:
			assigns <- f
		case TypeShutdown:
			close(assigns)
			<-runnerDone
			cancel()
			return nil
		default:
			// Unknown frames are ignored, not fatal: an older worker
			// against a newer coordinator degrades instead of dying.
			obs.LogfCtx(ctx, "fabric: worker: ignoring frame %q", f.Type)
		}
	}
}

// peerGone reports whether a link error means the coordinator's end
// is simply gone. A spawned worker sees stdin EOF; a TCP worker whose
// coordinator closed with frames (a pong, a late result) still in
// flight sees a connection reset instead, because unread data at
// close time turns the FIN into an RST. Either way the worker's job
// is over and it retires cleanly — no orphans, no spurious errors.
func peerGone(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// Dial policy for RunWorkerTCP: workers are routinely started before
// the coordinator's -listen socket is up (init systems, parallel ssh
// fan-out), so a refused dial retries with exponential backoff and
// jitter instead of dying. Each retry is reported on tcpDialLog, the
// worker's stderr: a worker waits before any recorder exists. Package
// variables so tests can tighten and capture them.
var (
	tcpDialTimeout              = 10 * time.Second
	tcpDialAttempts             = 8
	tcpDialBackoff              = 250 * time.Millisecond
	tcpDialBackoffMax           = 3 * time.Second
	tcpDialNow                  = time.Now // only the jitter reads the clock
	tcpDialLog        io.Writer = os.Stderr
)

// dialCoordinator dials addr with bounded retry: tcpDialAttempts
// attempts, exponential backoff from tcpDialBackoff capped at
// tcpDialBackoffMax, each wait jittered by up to half its length so
// a fleet of workers pointed at one coordinator doesn't reconnect in
// lockstep.
func dialCoordinator(addr string) (net.Conn, error) {
	backoff := tcpDialBackoff
	var lastErr error
	for attempt := 0; attempt < tcpDialAttempts; attempt++ {
		if attempt > 0 {
			jitter := time.Duration(tcpDialNow().UnixNano()) % (backoff / 2)
			fmt.Fprintf(tcpDialLog, "fabric: worker: dial %s failed (%v), retry %d/%d in %v\n",
				addr, lastErr, attempt, tcpDialAttempts-1, backoff+jitter)
			time.Sleep(backoff + jitter)
			if backoff *= 2; backoff > tcpDialBackoffMax {
				backoff = tcpDialBackoffMax
			}
		}
		conn, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fabric: worker: dial %s: %d attempts: %w",
		addr, tcpDialAttempts, lastErr)
}

// RunWorkerTCP dials the coordinator and serves the worker protocol
// over the connection (fsexp -worker -connect addr). A coordinator
// that is not listening yet is retried with backoff, so start order
// does not matter.
func RunWorkerTCP(addr string) error {
	conn, err := dialCoordinator(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return RunWorker(conn, conn)
}

// runCell executes one assignment under its own event collector and
// reports the cell's payload. The chaos points live here: worker.cell
// fires before the cell runs (exit and hang simulate crashes and
// wedges mid-cell), worker.send fires before the report (corrupt
// mangles the result frame so the coordinator must treat this worker
// as failed).
func runCell(ctx context.Context, conn *Conn, enum *experiments.Enumeration, a *Frame) {
	res := &Frame{Type: TypeResult, Key: a.Key}
	if ferr := faultinject.Fire(ctx, "worker.cell", a.Key); ferr != nil {
		res.Err = ferr.Error()
		conn.Write(res)
		return
	}
	var ev experiments.CellEvents
	data, spans, err, ok := enum.Run(experiments.WithEvents(ctx, &ev), a.Key)
	switch {
	case !ok:
		// Grid mismatch: the coordinator asked for a cell this worker
		// never enumerated. Reported, not fatal — the coordinator
		// decides whether to fail the cell or the worker.
		res.Err = fmt.Sprintf("worker has no cell %q (grid mismatch?)", a.Key)
	case err != nil:
		res.Err = err.Error()
	default:
		res.Result = &experiments.CellResult{Key: a.Key, Data: data, Spans: spans, Events: ev}
	}
	if ferr := faultinject.Fire(ctx, "worker.send", a.Key); ferr != nil && faultinject.IsCorrupt(ferr) {
		conn.writeMangled(res)
		return
	}
	if werr := conn.Write(res); werr != nil {
		obs.LogfCtx(ctx, "fabric: worker: report %s: %v", a.Key, werr)
	}
}
