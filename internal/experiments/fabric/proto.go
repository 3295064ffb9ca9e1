// Package fabric runs experiment cells in worker processes: a
// coordinator leases workers it spawns locally (fsexp -worker over
// stdio) or that attach over TCP to the cells of a run's (program ×
// version × procs × block × protocol × topology) grid, and hands each
// cell's payload — result, span subtree, events — back to the
// experiment runner, which folds it into the same store, span trees
// and manifests a single-process run produces: byte-identical modulo
// timing.
//
// The coordinator does not schedule. Every cell stays a job of the
// experiment pool (internal/experiments/pool), which calls
// Coordinator.RunCell for it: so fail-fast, keep-going,
// skip-on-cancel and the store work in a distributed run exactly as
// in a local one.
// RunCell waits for an idle worker, dispatches the cell, and waits
// for the worker's report.
//
// Robustness is the headline contract, because at fleet scale
// something is always failing:
//
//   - per-worker heartbeats and per-cell deadlines (Options.JobTimeout)
//     detect dead and hung workers;
//   - a cell whose worker is lost is dispatched again, bounded per
//     cell (Options.MaxDeaths) so a poison cell cannot eat the fleet;
//   - once the last worker is lost with no replacement possible, every
//     waiting and later dispatch fails at once instead of hanging;
//   - a worker whose ready frame names another build than the
//     coordinator's (artifact.BuildID), or none, is dropped before it
//     is assigned a cell, since its results would be stored under the
//     coordinator's build.
//
// Workers hold no state worth keeping: they never open the cell store
// (experiments.Config.Store) — only the process that owns the run
// does, storing each payload as it arrives — so a worker's death
// loses at most the one cell it was running, which is dispatched
// again.
//
// The wire protocol is deliberately minimal: 4-byte big-endian
// length-prefixed JSON frames over any byte stream. Workers re-derive
// the coordinator's exact cell grid from the shipped ConfigSpec and
// SectionSet (experiments.Collect), so an assignment is just a key —
// no closures, no code shipping, and the same determinism guarantees
// as running in process.
package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"falseshare/internal/experiments"
)

// Frame types. The coordinator sends hello, assign, ping and
// shutdown; workers send ready, result and pong.
const (
	// TypeHello configures a worker: grid spec, sections, fault spec.
	// Always the first frame on a connection.
	TypeHello = "hello"
	// TypeReady acknowledges hello: the worker enumerated its grid and
	// accepts assignments, if the coordinator admits its build.
	TypeReady = "ready"
	// TypeAssign hands one cell (by key) to the worker.
	TypeAssign = "assign"
	// TypeResult reports one cell's outcome.
	TypeResult = "result"
	// TypePing/TypePong are the liveness heartbeat.
	TypePing = "ping"
	TypePong = "pong"
	// TypeShutdown asks the worker to flush and exit cleanly.
	TypeShutdown = "shutdown"
)

// Frame is one protocol message. A single struct with optional fields
// keeps the codec trivial; each type uses the fields it needs.
type Frame struct {
	Type string `json:"type"`

	// hello
	Spec   *experiments.ConfigSpec `json:"spec,omitempty"`
	Set    *experiments.SectionSet `json:"set,omitempty"`
	Faults string                  `json:"faults,omitempty"`

	// assign + result
	Key string `json:"key,omitempty"`

	// result: a successful cell's payload — the CellResult the
	// coordinator's cell store keeps — or a failed cell's error
	Result *experiments.CellResult `json:"result,omitempty"`
	Err    string                  `json:"err,omitempty"`

	// ready: the grid size and the worker's build identity
	// (artifact.BuildID); the coordinator refuses any other build
	Cells int    `json:"cells,omitempty"`
	Build string `json:"build,omitempty"`
}

// MaxFrame bounds a frame's encoded size: anything larger is a
// protocol violation (or corruption), not a legitimate result.
const MaxFrame = 64 << 20

// Conn frames a byte stream. Reads are single-reader; writes are
// mutex-serialized so heartbeats and results can share a connection.
type Conn struct {
	r   *bufio.Reader
	wmu sync.Mutex
	w   *bufio.Writer
	c   io.Closer
}

// NewConn wraps a reader/writer pair. If rw also implements
// io.Closer, Close closes it.
func NewConn(r io.Reader, w io.Writer) *Conn {
	conn := &Conn{r: bufio.NewReader(r), w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		conn.c = c
	}
	return conn
}

// Close closes the underlying stream, if it is closable. Safe to call
// concurrently with Read/Write: a blocked Read unblocks with an error.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// Read decodes the next frame. io.EOF means the peer closed cleanly
// between frames; any mid-frame truncation or undecodable payload is
// an error — the fabric treats both as a dead peer. The body buffer
// grows with the bytes that arrive, not with the length the header
// claims, so a torn frame costs only what was sent.
func (c *Conn) Read() (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("fabric: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("fabric: frame length %d out of range", n)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, c.r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a torn body is not a clean close
		}
		return nil, fmt.Errorf("fabric: read frame body: %w", err)
	}
	f := &Frame{}
	if err := json.Unmarshal(body.Bytes(), f); err != nil {
		return nil, fmt.Errorf("fabric: decode frame: %w", err)
	}
	if f.Type == "" {
		return nil, fmt.Errorf("fabric: frame without type")
	}
	return f, nil
}

// Write encodes and sends one frame, flushed before returning.
func (c *Conn) Write(f *Frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("fabric: encode frame: %w", err)
	}
	return c.writeRaw(b)
}

// writeMangled sends a deliberately corrupted encoding of f — the
// worker.send chaos mode. The length prefix stays valid so the
// corruption surfaces as a decode failure at the peer, the way a
// flipped bit in a real payload would.
func (c *Conn) writeMangled(f *Frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("fabric: encode frame: %w", err)
	}
	for i := range b {
		b[i] ^= 0x5a
	}
	return c.writeRaw(b)
}

func (c *Conn) writeRaw(b []byte) error {
	if len(b) > MaxFrame {
		return fmt.Errorf("fabric: frame length %d out of range", len(b))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("fabric: write frame: %w", err)
	}
	if _, err := c.w.Write(b); err != nil {
		return fmt.Errorf("fabric: write frame: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("fabric: write frame: %w", err)
	}
	return nil
}

// frameError reconstructs a worker-reported error.
func frameError(f *Frame) error {
	if f.Err == "" {
		return nil
	}
	return errors.New(f.Err)
}
