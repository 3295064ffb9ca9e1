package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestEmitMetricsProgressLine: a verbose recorder's progress stream
// receives one line with the counters in sorted key order, and a
// quiet recorder drops the snapshot.
func TestEmitMetricsProgressLine(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder()
	rec.Verbose = true
	rec.LogW = &buf
	rec.EmitMetrics("sweep", map[string]int64{"b": 2, "a": 1})
	line := buf.String()
	if !strings.Contains(line, "obs: metrics sweep") || !strings.Contains(line, "a=1 b=2") {
		t.Errorf("verbose metrics line = %q", line)
	}

	buf.Reset()
	rec.Verbose = false
	rec.EmitMetrics("sweep", map[string]int64{"a": 1})
	if buf.Len() != 0 {
		t.Errorf("quiet recorder logged: %q", buf.String())
	}
}

// TestEmitMetricsNilSafe checks the nil-recorder path costs nothing
// and does not panic.
func TestEmitMetricsNilSafe(t *testing.T) {
	var r *Recorder
	r.EmitMetrics("sim:b64", map[string]int64{"refs": 1})
}
