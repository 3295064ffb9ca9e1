package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// layer. Spans of one operation share OpID; Parent is the enclosing
// span's ID (0 at top level).
type span struct {
	OpID   int64            `json:"op_id"`
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its ID.
func (t *tracer) open(op, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{OpID: op, ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Start: now}
	t.spans = append(t.spans, s)
	return s.ID
}

// close ends span id, attaching counts (which the tracer keeps).
func (t *tracer) close(id int64, counts map[string]int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	s.End, s.Counts = now, counts
}

// do runs f inside a span and returns f's wall time. f returns the
// span's counts (nil for none).
func (t *tracer) do(op, parent int64, name string, f func() map[string]int64) time.Duration {
	id := t.open(op, parent, name)
	start := time.Now()
	counts := f()
	d := time.Since(start)
	t.close(id, counts)
	return d
}

// add records an already-measured span that started at start and
// lasted d, and returns its ID.
func (t *tracer) add(op, parent int64, name string, start time.Time, d time.Duration, counts map[string]int64) int64 {
	if t == nil {
		return 0
	}
	begin := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{OpID: op, ID: int64(len(t.spans) + 1), Parent: parent,
		Name: name, Start: begin, End: begin + d.Nanoseconds(), Counts: counts}
	t.spans = append(t.spans, s)
	return s.ID
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSet groups closed spans by name for metric derivation.
type spanSet map[string][]*span

func (t *tracer) byName() spanSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := spanSet{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// medianDur is the median wall time of the spans named name, in unit.
func (ss spanSet) medianDur(name string, unit time.Duration) float64 {
	var d []time.Duration
	for _, s := range ss[name] {
		d = append(d, s.dur())
	}
	return float64(medianOf(d)) / float64(unit)
}

// medianCount is the median of one count across the spans named name,
// divided by div.
func (ss spanSet) medianCount(name, count string, div float64) float64 {
	var v []time.Duration
	for _, s := range ss[name] {
		v = append(v, time.Duration(s.Counts[count]))
	}
	return float64(medianOf(v)) / div
}

// sum totals one count across the spans named name.
func (ss spanSet) sum(name, count string) int64 {
	var n int64
	for _, s := range ss[name] {
		n += s.Counts[count]
	}
	return n
}

// nsPer is the total wall time of the spans named name per unit of
// one of their counts.
func (ss spanSet) nsPer(name, count string) float64 {
	var d time.Duration
	for _, s := range ss[name] {
		d += s.dur()
	}
	if n := ss.sum(name, count); n > 0 {
		return float64(d) / float64(n)
	}
	return 0
}
