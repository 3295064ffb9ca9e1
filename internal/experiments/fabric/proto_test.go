package fabric

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"falseshare/internal/experiments"
	"falseshare/internal/experiments/pool"
	"falseshare/internal/obs"
)

// pipeConn returns two Conns wired back to back over in-memory pipes.
func pipeConn() (*Conn, *Conn) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return NewConn(ar, aw), NewConn(br, bw)
}

func TestConnRoundTrip(t *testing.T) {
	a, b := pipeConn()
	frames := []*Frame{
		{Type: TypeHello, Spec: &experiments.ConfigSpec{Scale: 3}, Set: &experiments.SectionSet{Sections: []string{"matrix"}}, Faults: "pool.worker:error"},
		{Type: TypeReady, Cells: 42},
		{Type: TypeAssign, Key: "matrix/gen-001/mesi/flat"},
		{Type: TypeResult, Key: "matrix/gen-001/mesi/flat", Data: json.RawMessage(`{"x":1}`), Spans: []*obs.Span{{Name: "job"}}},
		{Type: TypeResult, Key: "k", Err: "boom", Retryable: true},
		{Type: TypePing},
		{Type: TypePong},
		{Type: TypeShutdown},
	}
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
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestConnTransientSurvivesWire(t *testing.T) {
	f := &Frame{Type: TypeResult, Key: "k", Err: "flaky", Retryable: true}
	if err := frameError(f); !pool.Transient(err) {
		t.Errorf("retryable frame error lost its transience: %v", err)
	}
	f.Retryable = false
	if err := frameError(f); pool.Transient(err) {
		t.Errorf("non-retryable frame error became transient: %v", err)
	}
	if err := frameError(&Frame{Type: TypeResult, Key: "k"}); err != nil {
		t.Errorf("success frame produced error %v", err)
	}
}

// TestConnMangledFrame pins the worker.send chaos contract: a mangled
// payload keeps a valid length prefix but fails to decode, so the
// coordinator sees a protocol error (dead worker), not a hang.
func TestConnMangledFrame(t *testing.T) {
	a, b := pipeConn()
	go a.writeMangled(&Frame{Type: TypeResult, Key: "k", Data: json.RawMessage(`{"x":1}`)})
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
	if err := c.Write(&Frame{Type: TypeResult, Data: big}); err == nil {
		t.Error("oversize frame written without error")
	}
}
