package experiments

// One measurement per distinct program. A cell's result depends only
// on what it executes: the bytecode and address space the VM runs, the
// cache configuration the references feed, whether the KSR clock
// prices the run, and the step budget.
// Cells of different figures, or of one figure, often execute the same
// thing: a Table 2 variant whose transformation does not apply compiles
// to N's exact bytecode, and Table 3 re-runs Figure 4's sweeps. Under a
// memo the first cell to ask for a measurement runs it, and every later
// or concurrent asker takes its result without running the VM.
//
// The memo is scoped by a context, never by a package variable or a
// Config field: runJobs gives each fan-out one unless the caller's
// context already carries one, and fsexp gives its whole run one.
// Without a memo on the context (fsd, fsc) every cell measures as if
// alone.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"sync"

	"falseshare/internal/obs"
	"falseshare/internal/sim/cache"
	"falseshare/internal/vm"
)

// memo keeps the successful measurements of one run scope by program
// key. Failures are never kept: a failed measurement fails only the
// cell that ran it, and its waiters measure for themselves.
type memo struct {
	mu      sync.Mutex
	flights map[[32]byte]*flight
}

// flight is one measurement, running or kept. done closes when its
// leader returns; ok, val and spans are set before, and only on
// success.
type flight struct {
	done  chan struct{}
	ok    bool
	val   any
	spans []*obs.Span // the measurement's span subtree, walls zeroed
}

type memoKey struct{}

// WithMeasureMemo returns ctx carrying a fresh measurement memo: every
// experiment fan-out run under it measures each distinct program once
// and hands the result to every cell that asks for it. Give each run
// its own; a nil ctx is taken as context.Background().
func WithMeasureMemo(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, memoKey{}, &memo{flights: map[[32]byte]*flight{}})
}

// memoFrom returns the memo on ctx, or nil.
func memoFrom(ctx context.Context) *memo {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(memoKey{}).(*memo)
	return m
}

// join returns key's kept flight, or a new one the caller must lead.
// A waiter whose leader fails tries again, so it leads or waits anew;
// a waiter honours its own context.
func (m *memo) join(ctx context.Context, key [32]byte) (f *flight, lead bool, err error) {
	for {
		m.mu.Lock()
		f = m.flights[key]
		if f == nil {
			f = &flight{done: make(chan struct{})}
			m.flights[key] = f
			m.mu.Unlock()
			return f, true, nil
		}
		m.mu.Unlock()
		select {
		case <-f.done:
			if f.ok {
				return f, false, nil
			}
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// land ends a leader's flight: a success is kept for every later
// asker, a failure is forgotten before its waiters wake.
func (m *memo) land(key [32]byte, f *flight) {
	if !f.ok {
		m.mu.Lock()
		delete(m.flights, key)
		m.mu.Unlock()
	}
	close(f.done)
}

// share runs measure once per key within m. The leader measures under
// a private recorder and adopts the span subtree it recorded, walls
// and all; every other asker adopts a copy with zero walls, so the
// span trees keep one shape whoever led, and the walls add up to time
// actually spent. adopt grafts a subtree where the caller's own
// measurement would have recorded it. The result is shared: askers
// must not modify it.
func share[T any](ctx context.Context, m *memo, key [32]byte, adopt func([]*obs.Span), measure func(context.Context) (T, error)) (v T, err error) {
	f, lead, err := m.join(ctx, key)
	if err != nil {
		return v, err
	}
	if !lead {
		adopt(idleCopy(f.spans))
		return f.val.(T), nil
	}
	rec := obs.NewRecorder()
	if base := obs.FromContext(ctx); base != nil {
		rec.Verbose, rec.LogW = base.Verbose, base.LogW
	}
	returned := false
	// Deferred, so a panicking measurement still releases its waiters.
	defer func() {
		spans := rec.Spans()
		adopt(spans)
		if returned && err == nil {
			f.ok, f.val, f.spans = true, v, idleCopy(spans)
		}
		m.land(key, f)
	}()
	v, err = measure(obs.WithRecorder(ctx, rec))
	returned = true
	return v, err
}

// idleCopy deep-copies a span forest with every wall time zeroed.
func idleCopy(spans []*obs.Span) []*obs.Span {
	if spans == nil {
		return nil
	}
	out := make([]*obs.Span, len(spans))
	for i, s := range spans {
		out[i] = &obs.Span{Name: s.Name, Started: s.Started, Counters: maps.Clone(s.Counters), Children: idleCopy(s.Children)}
	}
	return out
}

// programKey hashes what a measurement executes and yields: the
// bytecode and address space the VM runs (source lines and function
// names only label runtime errors, and failures are never kept), the
// kind of measurement, the simulator configuration, and the step
// budget.
func programKey(bc *vm.Program, kind measureKind, ccfg cache.Config, budget int64) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00%#v\x00%d\x00", kind, ccfg, budget)
	b := make([]byte, 0, 64)
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	put(int64(bc.Main), int64(bc.Nprocs), bc.SharedEnd, bc.HeapBase, bc.ArenaBase, bc.ArenaSize, bc.PrivSize, int64(len(bc.Funcs)))
	for _, fn := range bc.Funcs {
		put(int64(fn.NParams), int64(fn.NLocals), int64(len(fn.Code)))
		for _, in := range fn.Code {
			put(int64(in.Op), in.A, in.B)
		}
		h.Write(b)
		b = b[:0]
	}
	h.Write(b)
	var k [32]byte
	h.Sum(k[:0])
	return k
}
