package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestParallelContextRouting: four goroutines, each with its own
// recorder on its context, record only into that recorder; nothing
// leaks into the installed recorder or into another goroutine's.
func TestParallelContextRouting(t *testing.T) {
	global := NewRecorder()
	Install(global)
	defer Install(nil)

	var wg sync.WaitGroup
	recs := make([]*Recorder, 4)
	for i := range recs {
		recs[i] = NewRecorder()
		ctx := WithRecorder(context.Background(), recs[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				sp := BeginCtx(ctx, "work")
				sp.Set("worker", int64(i))
				BeginCtx(ctx, "inner").End()
				sp.End()
			}
		}()
	}
	wg.Wait()

	if n := len(global.Spans()); n != 0 {
		t.Errorf("installed recorder captured %d worker spans, want 0", n)
	}
	for i, rec := range recs {
		spans := rec.Spans()
		if len(spans) != 50 {
			t.Fatalf("worker %d recorded %d spans, want 50", i, len(spans))
		}
		for _, s := range spans {
			if s.Name != "work" || s.Counters["worker"] != int64(i) ||
				len(s.Children) != 1 || s.Children[0].Name != "inner" {
				t.Fatalf("worker %d recorder holds %+v", i, s)
			}
		}
	}
}

// TestContextRecorderPrecedence: the innermost WithRecorder wins, and
// a context without one falls back to the installed recorder, then to
// nil.
func TestContextRecorderPrecedence(t *testing.T) {
	defer Install(nil)
	Install(nil)
	outer, inner, global := NewRecorder(), NewRecorder(), NewRecorder()
	bg := context.Background()
	octx := WithRecorder(bg, outer)
	ictx, cancel := context.WithCancel(WithRecorder(octx, inner))
	defer cancel()

	if FromContext(bg) != nil || FromContext(nil) != nil || BeginCtx(bg, "x") != nil {
		t.Fatal("no recorder anywhere must give nil")
	}
	if FromContext(octx) != outer || FromContext(ictx) != inner {
		t.Fatal("the innermost WithRecorder must win")
	}
	Install(global)
	if FromContext(bg) != global || FromContext(nil) != global {
		t.Fatal("a context without a recorder must fall back to the installed one")
	}
	if FromContext(ictx) != inner {
		t.Fatal("a context recorder must win over the installed one")
	}
	if FromContext(WithRecorder(ictx, nil)) != nil {
		t.Fatal("a nil context recorder must turn recording off")
	}

	BeginCtx(ictx, "in").End()
	BeginCtx(octx, "out").End()
	BeginCtx(bg, "global").End()
	for rec, want := range map[*Recorder]string{inner: "in", outer: "out", global: "global"} {
		if spans := rec.Spans(); len(spans) != 1 || spans[0].Name != want {
			t.Errorf("recorder for %q holds %+v", want, spans)
		}
	}
}

// BenchmarkBegin times opening and closing one span through BeginCtx.
func BenchmarkBegin(b *testing.B) {
	b.Run("no-recorder", func(b *testing.B) {
		Install(nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			BeginCtx(ctx, "bench").End()
		}
	})
	b.Run("ctx-recorder", func(b *testing.B) {
		base, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ctx context.Context
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%4096 == 0 { // a fresh recorder bounds the kept spans
				ctx = WithRecorder(base, NewRecorder())
			}
			BeginCtx(ctx, "bench").End()
		}
	})
}

// TestDetachedChildSpans: Child attaches under its parent outside the
// recorder stack, so concurrent children never capture each other —
// and attachment order is creation order, not completion order.
func TestDetachedChildSpans(t *testing.T) {
	rec := NewRecorder()
	parent := rec.Begin("stage")
	a := parent.Child("a")
	b := parent.Child("b")

	var wg sync.WaitGroup
	for _, c := range []*Span{b, a} { // end in reverse order
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Count("hits", 2)
			c.End()
		}()
	}
	wg.Wait()

	// A detached End must not pop the recorder stack: "stage" is still
	// the innermost open span.
	nested := rec.Begin("nested")
	nested.End()
	parent.End()

	spans := rec.Spans()
	if len(spans) != 1 || spans[0].Name != "stage" {
		t.Fatalf("top: %+v", spans)
	}
	kids := spans[0].Children
	if len(kids) != 3 || kids[0].Name != "a" || kids[1].Name != "b" || kids[2].Name != "nested" {
		t.Fatalf("children out of order: %+v", kids)
	}
	if kids[0].Counters["hits"] != 2 || kids[1].Counters["hits"] != 2 {
		t.Errorf("counters: %+v", kids)
	}
}

// TestAdoptAndSetWall: grafting snapshot spans and stamping wall
// times, the pool's manifest mechanics.
func TestAdoptAndSetWall(t *testing.T) {
	job := NewRecorder()
	s := job.Begin("inner")
	s.End()

	main := NewRecorder()
	slot := main.Begin("stage").Child("job:k")
	slot.Adopt(job.Spans())
	slot.SetWall(123 * time.Millisecond)
	slot.End()

	spans := main.Spans()
	jobSpan := spans[0].Children[0]
	if jobSpan.Wall != 123*time.Millisecond {
		t.Errorf("SetWall overridden: %v", jobSpan.Wall)
	}
	if len(jobSpan.Children) != 1 || jobSpan.Children[0].Name != "inner" {
		t.Errorf("adopted tree: %+v", jobSpan.Children)
	}

	// All nil-safe.
	var nilSpan *Span
	nilSpan.Adopt(job.Spans())
	nilSpan.SetWall(time.Second)
	if nilSpan.Child("x") != nil {
		t.Error("Child of nil span must be nil")
	}
}
