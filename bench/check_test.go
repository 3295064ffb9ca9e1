package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"falseshare/internal/serve"
)

// served sends body to an in-process fsd and returns the response.
func served(t *testing.T, h http.Handler, endpoint string, body map[string]any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// doctor applies edit to the decoded result of a response.
func doctor(t *testing.T, resp []byte, edit func(result map[string]any)) []byte {
	t.Helper()
	var env map[string]any
	if err := json.Unmarshal(resp, &env); err != nil {
		t.Fatal(err)
	}
	edit(env["result"].(map[string]any))
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bump(m map[string]any, key string) { m[key] = m[key].(float64) + 1 }

func bumpAt(m map[string]any, key string, i int) {
	a := m[key].([]any)
	a[i] = a[i].(float64) + 1
}

func TestCheckResponseRejectsDoctoredResults(t *testing.T) {
	srv, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	src := string(serveRequest(3, 0).Body)
	var base map[string]any
	if err := json.Unmarshal([]byte(src), &base); err != nil {
		t.Fatal(err)
	}
	req := func(extra map[string]any) map[string]any {
		b := map[string]any{"source": base["source"], "nprocs": 8, "block_size": 64}
		for k, v := range extra {
			b[k] = v
		}
		return b
	}

	cases := []struct {
		name     string
		endpoint string
		body     map[string]any
		edit     func(map[string]any)
		want     string // a fragment of the rejection
	}{
		{"reads+writes", "simulate", req(nil), func(r map[string]any) {
			bump(r["stats"].(map[string]any), "Reads")
		}, "reads"},
		{"per-proc refs", "simulate", req(nil), func(r map[string]any) {
			bumpAt(r["stats"].(map[string]any), "ProcRefs", 0)
		}, "per-proc refs"},
		{"per-proc false sharing", "simulate", req(nil), func(r map[string]any) {
			bumpAt(r["stats"].(map[string]any), "ProcFS", 1)
		}, "per-proc"},
		{"two-ring service split", "simulate", req(map[string]any{"topology": "two-ring", "ring_size": 4}), func(r map[string]any) {
			bump(r["stats"].(map[string]any), "RemoteServiced")
		}, "local"},
		{"two-ring cost", "simulate", req(map[string]any{"topology": "two-ring", "ring_size": 4}), func(r map[string]any) {
			bump(r["stats"].(map[string]any), "CostCycles")
		}, "cost"},
		{"write-update sharing", "simulate", req(map[string]any{"protocol": "write-update"}), func(r map[string]any) {
			// Consistent per-proc counts, so only the protocol rule fails.
			st := r["stats"].(map[string]any)
			bump(st, "FalseShare")
			bumpAt(st, "ProcFS", 0)
			bumpAt(st, "ProcMisses", 0)
		}, "write-update"},
		{"attribution total", "analyze", req(nil), func(r map[string]any) {
			bump(r["attribution"].(map[string]any), "cold")
		}, "attributed misses"},
		{"attributed false sharing", "analyze", req(nil), func(r map[string]any) {
			bump(r["stats"].(map[string]any), "false_share")
		}, "attributed sharing"},
		{"degraded transform", "transform", req(map[string]any{"verify": true}), func(r map[string]any) {
			r["degraded"] = []any{"fscnt: verify: diverged"}
		}, "degraded"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, resp := served(t, h, c.endpoint, c.body)
			if _, err := checkResponse(c.endpoint, status, resp); err != nil {
				t.Fatalf("genuine response rejected: %v", err)
			}
			bad := doctor(t, resp, c.edit)
			if _, err := checkResponse(c.endpoint, status, bad); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("doctored response: got %v, want a rejection naming %q", err, c.want)
			}
		})
	}

	// Transport-level failures are failed operations too.
	status, resp := served(t, h, "analyze", map[string]any{"source": "shared int x["})
	if _, err := checkResponse("analyze", status, resp); err == nil {
		t.Fatalf("status %d error response accepted", status)
	}
}
