// Package trace provides utilities over the shared-memory reference
// streams the VM produces: fan-out sinks and a compact binary format
// for storing traces on disk, mirroring the paper's use of stored
// traces for simulation [EKKL90].
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"falseshare/internal/vm"
)

// Sink consumes references.
type Sink func(vm.Ref)

// Tee fans a reference stream out to several sinks.
func Tee(sinks ...Sink) Sink {
	return func(r vm.Ref) {
		for _, s := range sinks {
			s(r)
		}
	}
}

// ---------------------------------------------------------------------------
// Binary format: an 8-byte little-endian header
//
//	magic    [4]byte "FSTR"
//	version  uint8   (currently 1)
//	reserved uint8
//	nprocs   uint16  (process count of the capture)
//
// followed by a fixed 14-byte little-endian record per reference:
//
//	proc  uint16
//	addr  uint64
//	size  uint8
//	write uint8 (0/1)
//	pad   2 bytes (record alignment / future flags)
//
// Reader rejects a stream that does not start with the header.

const (
	recordSize = 14
	headerSize = 8

	formatVersion = 1
)

var magic = [4]byte{'F', 'S', 'T', 'R'}

// ErrNotTrace reports a stream that does not start with the trace
// header.
var ErrNotTrace = errors.New("trace: not a trace file (no FSTR header)")

// MapSidecar names the address-map sidecar conventionally stored next
// to a trace file. A trace is a bare reference stream; replaying it
// with miss attribution needs the address→(object, field) map that
// existed at capture time, which the capturing tool saves at this
// path (see attr.Map.WriteFile) and the replaying tool loads from it.
func MapSidecar(tracePath string) string {
	return tracePath + ".map.json"
}

// Writer streams references into an io.Writer.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter wraps w and emits the trace header recording the capture's
// process count. Header write errors surface on the first Write or
// Flush.
func NewWriter(w io.Writer, nprocs int) *Writer {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	hdr[4] = formatVersion
	binary.LittleEndian.PutUint16(hdr[6:], uint16(nprocs))
	_, tw.err = tw.w.Write(hdr[:])
	return tw
}

// Sink returns a sink writing every reference.
func (tw *Writer) Sink() Sink {
	return func(r vm.Ref) { tw.Write(r) }
}

// Write appends one reference.
func (tw *Writer) Write(r vm.Ref) {
	if tw.err != nil {
		return
	}
	var buf [recordSize]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(r.Proc))
	binary.LittleEndian.PutUint64(buf[2:], uint64(r.Addr))
	buf[10] = uint8(r.Size)
	if r.Write {
		buf[11] = 1
	}
	if _, err := tw.w.Write(buf[:]); err != nil {
		tw.err = err
		return
	}
	tw.n++
}

// Flush completes the stream and reports the record count.
func (tw *Writer) Flush() (int64, error) {
	if tw.err != nil {
		return tw.n, tw.err
	}
	return tw.n, tw.w.Flush()
}

// Reader decodes a stored trace, validating each record so that a
// corrupted or mismatched file fails with a descriptive error here
// instead of an index panic deep inside the simulator.
type Reader struct {
	r      *bufio.Reader
	nprocs int   // from the header
	n      int64 // records decoded, for error messages
	gotHdr bool
	hdrErr error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// readHeader consumes and checks the header; a stream that does not
// start with the format magic fails with ErrNotTrace.
func (tr *Reader) readHeader() error {
	if tr.gotHdr {
		return tr.hdrErr
	}
	tr.gotHdr = true
	if pk, _ := tr.r.Peek(len(magic)); len(pk) < len(magic) || [4]byte(pk) != magic {
		tr.hdrErr = ErrNotTrace
		return tr.hdrErr
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		tr.hdrErr = fmt.Errorf("trace: truncated header")
		return tr.hdrErr
	}
	if hdr[4] != formatVersion {
		tr.hdrErr = fmt.Errorf("trace: unsupported format version %d (want %d)", hdr[4], formatVersion)
		return tr.hdrErr
	}
	tr.nprocs = int(binary.LittleEndian.Uint16(hdr[6:]))
	if tr.nprocs < 1 {
		tr.hdrErr = fmt.Errorf("trace: header declares %d processors", tr.nprocs)
		return tr.hdrErr
	}
	return nil
}

// Nprocs reports the process count declared by the trace header, or 0
// when the header is missing or invalid (the first Next returns why).
func (tr *Reader) Nprocs() int {
	_ = tr.readHeader()
	return tr.nprocs
}

// Next returns the next reference; io.EOF ends the stream. Records
// naming a process outside the header's range, an address no shared
// reference can have, or a non-positive size yield an error
// identifying the offending record. The VM traces only shared
// addresses, which are never negative and never carry vm.PrivTag.
func (tr *Reader) Next() (vm.Ref, error) {
	if err := tr.readHeader(); err != nil {
		return vm.Ref{}, err
	}
	var buf [recordSize]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return vm.Ref{}, fmt.Errorf("trace: record %d: truncated", tr.n+1)
		}
		return vm.Ref{}, err
	}
	tr.n++
	r := vm.Ref{
		Proc:  int(binary.LittleEndian.Uint16(buf[0:])),
		Addr:  int64(binary.LittleEndian.Uint64(buf[2:])),
		Size:  int8(buf[10]),
		Write: buf[11] != 0,
	}
	if r.Proc >= tr.nprocs {
		return vm.Ref{}, fmt.Errorf("trace: record %d: proc %d out of range (header declares %d processors)",
			tr.n, r.Proc, tr.nprocs)
	}
	if r.Addr < 0 || r.Addr >= vm.PrivTag {
		return vm.Ref{}, fmt.Errorf("trace: record %d: address %#x out of range", tr.n, uint64(r.Addr))
	}
	if r.Size < 1 {
		return vm.Ref{}, fmt.Errorf("trace: record %d: invalid size %d", tr.n, buf[10])
	}
	return r, nil
}

// ForEach replays a stored trace into a sink.
func (tr *Reader) ForEach(s Sink) error {
	for {
		r, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		s(r)
	}
}
