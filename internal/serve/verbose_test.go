package serve_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"falseshare/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/verbose.golden with the current stream")

// spanDuration matches the wall time in a streamed span line:
// "obs: <indent><name> <padding><duration>[ counters]".
var spanDuration = regexp.MustCompile(`(?m)^(obs: +\S+) +\S+`)

// TestVerboseStreamGolden pins the Options.Verbose stream, durations
// stripped, of a cold /v1/analyze, a cold /v1/transform and a warm
// /v1/analyze.
func TestVerboseStreamGolden(t *testing.T) {
	var logw bytes.Buffer
	srv, err := serve.New(serve.Options{CacheDir: t.TempDir(), Verbose: true, LogW: &logw})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body, err := json.Marshal(map[string]any{"source": goodProgram, "nprocs": 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"analyze", "transform", "analyze"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+ep, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/%s: status %d: %s", ep, rec.Code, rec.Body)
		}
	}
	got := spanDuration.ReplaceAllString(logw.String(), "$1")

	const path = "testdata/verbose.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("verbose stream differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
