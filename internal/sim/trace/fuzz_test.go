package trace_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/layout"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/trace"
	"falseshare/internal/vm"
)

// fuzzSrc's layout gives the replay's address map globals, struct
// fields, a two-dimensional array, a heap and per-process arenas to
// resolve.
const fuzzSrc = `
struct Rec {
    int a;
    double b;
};
shared int cell[16];
shared struct Rec rec[8];
shared double grid[4][8];
shared struct Rec *owned;
void main() {
    cell[pid] = cell[pid] + 1;
    rec[pid].a = pid;
}
`

// fuzzProcs is the process count of the replaying machine: like
// fssim -replay -p 64, it simulates any trace captured with at most
// that many processes and declines the others.
const fuzzProcs = 64

// encodeTrace writes refs as a trace captured with nprocs processes.
func encodeTrace(tb testing.TB, nprocs int, refs []vm.Ref) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, nprocs)
	for _, r := range refs {
		w.Write(r)
	}
	if _, err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sharingRefs is a trace in which processes 0-3 and the last one
// read and write neighbouring words of every global, so a replay
// misses, shares and attributes while the seed stays small.
func sharingRefs(l *layout.Layout, nprocs int) []vm.Ref {
	var refs []vm.Ref
	for round := 0; round < 2; round++ {
		for _, name := range l.Order {
			v := l.Vars[name]
			for p := 0; p < nprocs; p++ {
				if p >= 4 && p < nprocs-1 {
					continue
				}
				addr := v.Base + int64(p%4)*4
				refs = append(refs,
					vm.Ref{Proc: p, Addr: addr, Size: 4},
					vm.Ref{Proc: p, Addr: addr, Size: 4, Write: true})
			}
		}
		refs = append(refs, vm.Ref{Proc: round % nprocs, Addr: l.HeapBase + 8, Size: 8, Write: true})
	}
	return refs
}

// FuzzTraceReplay drives arbitrary bytes through the path fssim
// -replay -diag takes: the Reader feeds two simulators, each with a
// miss attributor over the address map of a compiled program, and
// the attribution reports are rendered. The caches are 1 KiB, so
// short inputs evict and replace too. The replay never panics,
// every error is the Reader's own (ErrNotTrace or "trace: ..."), and
// the references it accepts round-trip through Writer and Reader
// unchanged.
func FuzzTraceReplay(f *testing.F) {
	prog, err := core.CompileCtx(context.Background(), fuzzSrc, core.Options{Nprocs: 4, BlockSize: 64})
	if err != nil {
		f.Fatal(err)
	}
	lay := prog.Layout

	for _, n := range []int{1, 4, 64} {
		f.Add(encodeTrace(f, n, sharingRefs(lay, n)))
	}
	valid := encodeTrace(f, 4, sharingRefs(lay, 4))
	f.Add([]byte{})                             // empty stream: not a trace
	f.Add(encodeTrace(f, 4, nil))               // a trace of no references
	f.Add(valid[:6])                            // truncated header
	f.Add(valid[:len(valid)-3])                 // truncated record
	f.Add(append([]byte("FSTX"), valid[4:]...)) // bad magic
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 2
	f.Add(badVersion)
	// A header declaring zero processes, a proc out of range, a zero
	// size.
	f.Add(encodeTrace(f, 0, nil))
	f.Add(encodeTrace(f, 2, []vm.Ref{{Proc: 0, Addr: 0x1000, Size: 4}, {Proc: 5, Addr: 0x1000, Size: 4}}))
	f.Add(encodeTrace(f, 2, []vm.Ref{{Proc: 1, Addr: 0x1000, Size: 0}}))
	// Address 0xffffff0000000000: with bit 63 set it once reached the
	// attributor as a negative word index.
	const wild = -1 << 40
	var wildRefs []vm.Ref
	for i := 0; i < 4; i++ {
		wildRefs = append(wildRefs,
			vm.Ref{Proc: 0, Addr: wild, Size: 4, Write: true},
			vm.Ref{Proc: 1, Addr: wild + 8, Size: 4},
			vm.Ref{Proc: 1, Addr: wild + 8, Size: 4, Write: true})
	}
	f.Add(encodeTrace(f, 2, wildRefs))

	f.Fuzz(func(t *testing.T, in []byte) {
		tr := trace.NewReader(bytes.NewReader(in))
		n := tr.Nprocs()
		blocks := []int64{16, 128}
		var sinks []trace.Sink
		var colls []*attr.Collector
		if n >= 1 && n <= fuzzProcs {
			amap := attr.NewMap(lay)
			for _, blk := range blocks {
				sim, err := cache.New(cache.Config{NumProcs: n, BlockSize: blk, CacheSize: 1024, Assoc: 2})
				if err != nil {
					t.Fatal(err)
				}
				c := attr.NewCollector(amap, blk)
				sim.SetAttributor(c)
				colls = append(colls, c)
				sinks = append(sinks, func(r vm.Ref) { sim.Access(r.Proc, r.Addr, int64(r.Size), r.Write) })
			}
		}
		var got []vm.Ref
		sinks = append(sinks, func(r vm.Ref) { got = append(got, r) })
		err := tr.ForEach(trace.Tee(sinks...))
		if err != nil && !errors.Is(err, trace.ErrNotTrace) && !strings.HasPrefix(err.Error(), "trace: ") {
			t.Fatalf("error is not the Reader's own: %v", err)
		}
		for _, c := range colls {
			_ = c.Report(n).Render()
		}

		if n < 1 {
			if len(got) != 0 {
				t.Fatalf("%d references accepted without a valid header", len(got))
			}
			return
		}
		again := encodeTrace(t, n, got)
		var back []vm.Ref
		if err := trace.NewReader(bytes.NewReader(again)).ForEach(func(r vm.Ref) { back = append(back, r) }); err != nil {
			t.Fatalf("accepted references do not read back: %v", err)
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("accepted references changed on the round trip:\n%v\n%v", got, back)
		}
	})
}
