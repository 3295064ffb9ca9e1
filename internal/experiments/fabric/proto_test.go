package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"

	"falseshare/internal/experiments"
	"falseshare/internal/obs"
)

// pipeConn returns two Conns wired back to back over in-memory pipes.
func pipeConn() (*Conn, *Conn) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return NewConn(ar, aw), NewConn(br, bw)
}

// roundTripFrames is one frame of every type, as the protocol sends
// them.
func roundTripFrames() []*Frame {
	return []*Frame{
		{Type: TypeHello, Spec: &experiments.ConfigSpec{Scale: 3}, Set: &experiments.SectionSet{Sections: []string{"matrix"}}, Faults: "pool.worker:error"},
		{Type: TypeReady, Cells: 42},
		{Type: TypeAssign, Key: "matrix/gen-001/mesi/flat"},
		{Type: TypeResult, Key: "matrix/gen-001/mesi/flat", Result: &experiments.CellResult{Key: "matrix/gen-001/mesi/flat", Data: json.RawMessage(`{"x":1}`), Spans: []*obs.Span{{Name: "job"}}}},
		{Type: TypeResult, Key: "k", Err: "boom"},
		{Type: TypePing},
		{Type: TypePong},
		{Type: TypeShutdown},
	}
}

func TestConnRoundTrip(t *testing.T) {
	a, b := pipeConn()
	frames := roundTripFrames()
	done := make(chan error, 1)
	go func() {
		for _, f := range frames {
			if err := a.Write(f); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for _, want := range frames {
		got, err := b.Read()
		if err != nil {
			t.Fatalf("read %q: %v", want.Type, err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Errorf("frame %q did not round-trip:\nsent %s\ngot  %s", want.Type, wb, gb)
		}
		if ferr := frameError(got); (ferr == nil) != (want.Err == "") || ferr != nil && ferr.Error() != want.Err {
			t.Errorf("frame %q: frameError = %v, want %q", want.Type, ferr, want.Err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConnMangledFrame pins the worker.send chaos contract: a mangled
// payload keeps a valid length prefix but fails to decode, so the
// coordinator sees a protocol error (dead worker), not a hang.
func TestConnMangledFrame(t *testing.T) {
	a, b := pipeConn()
	go a.writeMangled(&Frame{Type: TypeResult, Key: "k", Result: &experiments.CellResult{Key: "k", Data: json.RawMessage(`{"x":1}`)}})
	_, err := b.Read()
	if err == nil {
		t.Fatal("mangled frame decoded cleanly")
	}
	if err == io.EOF {
		t.Fatal("mangled frame read as clean EOF")
	}
}

func TestConnRejectsBadLengths(t *testing.T) {
	for name, hdr := range map[string]uint32{
		"zero":     0,
		"oversize": MaxFrame + 1,
	} {
		var buf bytes.Buffer
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], hdr)
		buf.Write(b[:])
		c := NewConn(&buf, io.Discard)
		if _, err := c.Read(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s length: got err %v, want out-of-range", name, err)
		}
	}
}

func TestConnEOFSemantics(t *testing.T) {
	// Clean close between frames is io.EOF...
	c := NewConn(bytes.NewReader(nil), io.Discard)
	if _, err := c.Read(); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	// ...but a truncated frame is a real error: the peer died mid-send.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	c = NewConn(&buf, io.Discard)
	if _, err := c.Read(); err == nil || err == io.EOF {
		t.Errorf("truncated frame: got %v, want mid-frame error", err)
	}
}

func TestConnRejectsOversizeWrite(t *testing.T) {
	c := NewConn(bytes.NewReader(nil), io.Discard)
	big := json.RawMessage(`"` + strings.Repeat("x", MaxFrame) + `"`)
	if err := c.Write(&Frame{Type: TypeResult, Result: &experiments.CellResult{Data: big}}); err == nil {
		t.Error("oversize frame written without error")
	}
}

// TestConnTornHeaderAllocatesLittle: a header that claims MaxFrame
// with almost nothing behind it costs what arrived, not the claimed
// length — any peer that reaches a -listen port can send one.
func TestConnTornHeaderAllocatesLittle(t *testing.T) {
	in := append(frameHeader(MaxFrame), `{"type":"result","key":"k"`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewConn(bytes.NewReader(in), io.Discard).Read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("torn frame decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("torn max-length frame allocated %d bytes, want < 1 MiB", d)
	}
}

func frameHeader(n uint32) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	return hdr[:]
}

// encodeFrame is f as Conn.Write puts it on the wire.
func encodeFrame(t testing.TB, f *Frame) []byte {
	var buf bytes.Buffer
	if err := NewConn(nil, &buf).Write(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wellFormed reports whether in starts with a whole in-range frame
// whose body decodes to a frame with a type: exactly the inputs Read
// must accept.
func wellFormed(in []byte) bool {
	if len(in) < 4 {
		return false
	}
	n := binary.BigEndian.Uint32(in)
	if n == 0 || n > MaxFrame || uint64(len(in)-4) < uint64(n) {
		return false
	}
	var f Frame
	return json.Unmarshal(in[4:4+n], &f) == nil && f.Type != ""
}

// FuzzConnRead: the frame decoder never panics, rejects every input
// that is not a whole, in-range, typed frame, and a frame it accepts
// encodes, decodes and encodes again to the same bytes.
func FuzzConnRead(f *testing.F) {
	for _, fr := range roundTripFrames() {
		f.Add(encodeFrame(f, fr))
	}
	hello := encodeFrame(f, roundTripFrames()[0])
	f.Add(hello[:2])                                     // torn header
	f.Add(hello[:len(hello)/2])                          // torn body
	f.Add(frameHeader(0))                                // zero length
	f.Add(append(frameHeader(MaxFrame+1), hello[4:]...)) // oversize length
	mangled := append([]byte(nil), hello...)
	for i := 4; i < len(mangled); i++ {
		mangled[i] ^= 0x5a
	}
	f.Add(mangled)                                   // mangled JSON
	f.Add(append(frameHeader(11), `{"key":"k"}`...)) // no type
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := NewConn(bytes.NewReader(in), io.Discard).Read()
		if ok := wellFormed(in); ok != (err == nil) {
			t.Fatalf("well-formed=%v but Read returned err=%v", ok, err)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("Read returned a frame with error %v", err)
			}
			return
		}
		first := encodeFrame(t, got)
		again, err := NewConn(bytes.NewReader(first), io.Discard).Read()
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v\n%q", err, first)
		}
		if second := encodeFrame(t, again); !bytes.Equal(first, second) {
			t.Fatalf("frame does not round-trip:\n%q\n%q", first, second)
		}
	})
}
