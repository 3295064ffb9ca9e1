package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"falseshare/internal/vm"
)

func randRefs(seed int64, n int) []vm.Ref {
	r := rand.New(rand.NewSource(seed))
	out := make([]vm.Ref, n)
	for i := range out {
		size := int8(4)
		if r.Intn(2) == 0 {
			size = 8
		}
		out[i] = vm.Ref{
			Proc:  r.Intn(56),
			Addr:  int64(r.Intn(1 << 24)),
			Size:  size,
			Write: r.Intn(2) == 0,
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	refs := randRefs(1, 1000)
	var buf bytes.Buffer
	w := NewWriter(&buf, 56)
	for _, r := range refs {
		w.Write(r)
	}
	n, err := w.Flush()
	if err != nil || n != 1000 {
		t.Fatalf("flush: n=%d err=%v", n, err)
	}
	var got []vm.Ref
	if err := NewReader(&buf).ForEach(func(r vm.Ref) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refs, got) {
		t.Fatalf("round trip mismatch: %d vs %d records", len(refs), len(got))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		refs := randRefs(seed, int(nRaw)%64+1)
		var buf bytes.Buffer
		w := NewWriter(&buf, 56)
		for _, r := range refs {
			w.Write(r)
		}
		if _, err := w.Flush(); err != nil {
			return false
		}
		var got []vm.Ref
		if err := NewReader(&buf).ForEach(func(r vm.Ref) { got = append(got, r) }); err != nil {
			return false
		}
		return reflect.DeepEqual(refs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 4)
	w.Write(vm.Ref{Proc: 1, Addr: 0x1000, Size: 4})
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want truncated", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	// An empty stream has no header, so it is not a trace; a trace of
	// no references is the bare header.
	if _, err := NewReader(bytes.NewReader(nil)).Next(); !errors.Is(err, ErrNotTrace) {
		t.Fatalf("err = %v, want ErrNotTrace", err)
	}
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 4).Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf).Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestHeaderNprocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 12)
	w.Write(vm.Ref{Proc: 11, Addr: 0x1000, Size: 4})
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if n := r.Nprocs(); n != 12 {
		t.Fatalf("Nprocs = %d, want 12", n)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
}

func TestLegacyHeaderlessTrace(t *testing.T) {
	// A bare record stream with no header is rejected before any
	// record reaches a sink, with Nprocs reporting 0.
	raw := make([]byte, recordSize)
	raw[0] = 7 // proc 7
	raw[10] = 4
	r := NewReader(bytes.NewReader(raw))
	if n := r.Nprocs(); n != 0 {
		t.Fatalf("headerless Nprocs = %d, want 0", n)
	}
	err := r.ForEach(func(vm.Ref) { t.Fatal("headerless record delivered") })
	if !errors.Is(err, ErrNotTrace) || !strings.Contains(err.Error(), "not a trace file") {
		t.Fatalf("err = %v, want ErrNotTrace", err)
	}
}

func TestCorruptProcOutOfRange(t *testing.T) {
	// A record claiming proc 9 in a trace whose header declares 4
	// processes: the reader must fail with a record-level diagnosis,
	// not hand the ref to a simulator that will index out of bounds.
	var buf bytes.Buffer
	w := NewWriter(&buf, 4)
	w.Write(vm.Ref{Proc: 1, Addr: 0x1000, Size: 4})
	w.Write(vm.Ref{Proc: 9, Addr: 0x2000, Size: 4})
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "record 2") || !strings.Contains(err.Error(), "proc 9") {
		t.Fatalf("err = %v, want record-2 proc-out-of-range", err)
	}
}

// TestCorruptAddressOutOfRange: a record whose address no shared
// reference can have (bit 63 set reads as negative, bit 62 is the
// VM's private-space tag) fails with a record-level diagnosis instead
// of reaching a simulator or attributor that indexes by it.
func TestCorruptAddressOutOfRange(t *testing.T) {
	for _, addr := range []uint64{0xffffff0000000000, 1 << 63, 1 << 62} {
		var buf bytes.Buffer
		w := NewWriter(&buf, 2)
		w.Write(vm.Ref{Proc: 0, Addr: 0x1000, Size: 4})
		w.Write(vm.Ref{Proc: 1, Addr: int64(addr), Size: 4})
		if _, err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var got []vm.Ref
		err := NewReader(bytes.NewReader(buf.Bytes())).ForEach(func(r vm.Ref) { got = append(got, r) })
		want := fmt.Sprintf("trace: record 2: address %#x out of range", addr)
		if err == nil || err.Error() != want {
			t.Errorf("address %#x: err = %v, want %q", addr, err, want)
		}
		if len(got) != 1 {
			t.Errorf("address %#x: %d records delivered, want only the valid first one", addr, len(got))
		}
	}
}

func TestCorruptZeroSize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 4)
	w.Write(vm.Ref{Proc: 0, Addr: 0x1000, Size: 0})
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err == nil || !strings.Contains(err.Error(), "invalid size") {
		t.Fatalf("err = %v, want invalid-size", err)
	}
}

func TestCorruptVersion(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 4)
	w.Write(vm.Ref{Proc: 0, Addr: 0x1000, Size: 4})
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // version byte
	_, err := NewReader(bytes.NewReader(b)).Next()
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("err = %v, want unsupported-version", err)
	}
}

func TestCorruptTruncatedHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 4)
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:headerSize-2]
	_, err := NewReader(bytes.NewReader(trunc)).Next()
	if err == nil || !strings.Contains(err.Error(), "truncated header") {
		t.Fatalf("err = %v, want truncated-header", err)
	}
}

func TestCorruptBadHeaderNprocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if _, err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err == nil || !strings.Contains(err.Error(), "0 processors") {
		t.Fatalf("err = %v, want zero-processors", err)
	}
}
