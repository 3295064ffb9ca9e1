package obs

import (
	"encoding/json"
	"io"
	"os"
	"time"
)

// Report is a machine-readable run manifest: tool identity, run
// configuration, the recorded span tree, and tool-specific result
// data. The CLIs write one per run (-report), the experiments harness
// one per figure/table, so performance trajectories diff as JSON.
type Report struct {
	Tool    string         `json:"tool"`
	Started time.Time      `json:"started"`
	WallMS  float64        `json:"wall_ms"`
	Config  map[string]any `json:"config,omitempty"`
	Spans   []*Span        `json:"spans,omitempty"`
	Data    map[string]any `json:"data,omitempty"`
}

// Report snapshots the recorder into a manifest for the named tool.
func (r *Recorder) Report(tool string) *Report {
	rep := &Report{Tool: tool, Data: map[string]any{}}
	if r != nil {
		rep.Started = r.started
		rep.WallMS = float64(time.Since(r.started)) / float64(time.Millisecond)
		rep.Spans = r.Spans()
	}
	return rep
}

// AddData attaches one tool-specific result value.
func (rep *Report) AddData(key string, v any) {
	if rep.Data == nil {
		rep.Data = map[string]any{}
	}
	rep.Data[key] = v
}

// spanJSON is the wire form of a span.
type spanJSON struct {
	Name     string           `json:"name"`
	WallNS   int64            `json:"wall_ns"`
	WallMS   float64          `json:"wall_ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*Span          `json:"children,omitempty"`
}

// MarshalJSON renders the span with wall time in both ns (exact) and
// ms (human-scaled).
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{
		Name:     s.Name,
		WallNS:   s.Wall.Nanoseconds(),
		WallMS:   float64(s.Wall) / float64(time.Millisecond),
		Counters: s.Counters,
		Children: s.Children,
	})
}

// UnmarshalJSON restores a span written by MarshalJSON (round-tripping
// reports in tests and tooling).
func (s *Span) UnmarshalJSON(b []byte) error {
	var in spanJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	s.Name = in.Name
	s.Wall = time.Duration(in.WallNS)
	s.Counters = in.Counters
	s.Children = in.Children
	return nil
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteFile writes the report as JSON to path.
func (rep *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
