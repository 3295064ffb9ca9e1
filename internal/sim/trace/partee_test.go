package trace

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"falseshare/internal/faultinject"
	"falseshare/internal/obs"
	"falseshare/internal/vm"
)

// TestParallelParTeeMatchesTee: every sink of a ParTee must observe
// the exact reference sequence a serial Tee would deliver, including a
// final partial batch.
func TestParallelParTeeMatchesTee(t *testing.T) {
	const n = 10_000 // not a multiple of the batch size
	mk := func() (Sink, *[]vm.Ref) {
		var got []vm.Ref
		return func(r vm.Ref) { got = append(got, r) }, &got
	}
	s1, got1 := mk()
	s2, got2 := mk()
	pt := NewParTee(256, s1, s2)
	sink := pt.Sink()
	want := make([]vm.Ref, 0, n)
	for i := 0; i < n; i++ {
		r := vm.Ref{Proc: i % 7, Addr: int64(i * 4), Size: 4, Write: i%3 == 0}
		want = append(want, r)
		sink(r)
	}
	if err := pt.Close(); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*[]vm.Ref{"sink1": got1, "sink2": got2} {
		if len(*got) != n {
			t.Fatalf("%s: saw %d refs, want %d", name, len(*got), n)
		}
		for i, r := range *got {
			if r != want[i] {
				t.Fatalf("%s: ref %d = %+v, want %+v", name, i, r, want[i])
			}
		}
	}
}

// TestParallelParTeePanic: a panicking sink surfaces from Close as an
// error and never deadlocks the producer.
func TestParallelParTeePanic(t *testing.T) {
	healthy := 0
	pt := NewParTee(8,
		func(r vm.Ref) {
			if r.Addr == 100 {
				panic("sink exploded")
			}
		},
		func(r vm.Ref) { healthy++ },
	)
	sink := pt.Sink()
	for i := 0; i < 1000; i++ {
		sink(vm.Ref{Addr: int64(i), Size: 4})
	}
	err := pt.Close()
	if err == nil {
		t.Fatal("expected panic error from Close")
	}
	if !strings.Contains(err.Error(), "sink exploded") {
		t.Errorf("error should carry the panic value: %v", err)
	}
	if healthy != 1000 {
		t.Errorf("healthy sink saw %d refs, want 1000", healthy)
	}
}

// TestParallelParTeeSpans: per-worker spans carry ref/batch counters.
func TestParallelParTeeSpans(t *testing.T) {
	rec := obs.NewRecorder()
	parent := rec.Begin("measure")
	pt := NewParTee(100, func(vm.Ref) {}, func(vm.Ref) {})
	pt.SetSpan(0, parent.Child("sim:a"))
	pt.SetSpan(1, parent.Child("sim:b"))
	sink := pt.Sink()
	for i := 0; i < 250; i++ {
		sink(vm.Ref{Addr: int64(i), Size: 4})
	}
	if err := pt.Close(); err != nil {
		t.Fatal(err)
	}
	parent.End()
	spans := rec.Spans()
	if len(spans) != 1 || len(spans[0].Children) != 2 {
		t.Fatalf("span tree: %+v", spans)
	}
	for i, c := range spans[0].Children {
		if c.Counters["refs"] != 250 {
			t.Errorf("worker %d refs = %d, want 250", i, c.Counters["refs"])
		}
		if c.Counters["batches"] != 3 { // 100 + 100 + 50
			t.Errorf("worker %d batches = %d, want 3", i, c.Counters["batches"])
		}
	}
}

// TestParTeeFaultPoint injects an error, a panic and a delay at the
// trace.partee fault point, which fires as each worker starts. An
// injected failure must come back from Close while the producer still
// streams every batch without blocking, and every worker goroutine
// must exit.
func TestParTeeFaultPoint(t *testing.T) {
	cases := []struct {
		name, spec string
		wantErr    func(error) bool
		lost       int // the sink the fault stops, or -1
	}{
		{"error", "trace.partee=0:error:count=1", func(err error) bool {
			var fe *faultinject.Error
			return errors.As(err, &fe)
		}, 0},
		{"panic", "trace.partee=0:panic:count=1", func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "injected panic at trace.partee")
		}, 0},
		{"delay", "trace.partee:delay=2ms:count=4", func(err error) bool { return err == nil }, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := faultinject.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Enable(s)
			t.Cleanup(func() { faultinject.Enable(nil) })

			before := runtime.NumGoroutine()
			const sinks, n = 4, 100 * 64 // far more batches than the channels buffer
			seen := make([]int, sinks)
			fns := make([]Sink, sinks)
			for i := range fns {
				i := i
				fns[i] = func(vm.Ref) { seen[i]++ }
			}
			pt := NewParTee(64, fns...)
			done := make(chan error, 1)
			go func() {
				sink := pt.Sink()
				for i := 0; i < n; i++ {
					sink(vm.Ref{Addr: int64(i * 4), Size: 4})
				}
				done <- pt.Close()
			}()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("producer blocked on a failed worker")
			}
			if !tc.wantErr(err) {
				t.Fatalf("Close = %v", err)
			}
			for i := range seen {
				if i != tc.lost && seen[i] != n {
					t.Errorf("sink %d saw %d refs, want %d", i, seen[i], n)
				}
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
