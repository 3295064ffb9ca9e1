package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"falseshare/internal/experiments"
	"falseshare/internal/serve"
	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
)

// checkResponse validates one fsd response: HTTP 200, ok:true, and the
// endpoint's own invariants. Any failure makes the request a failed
// operation. It returns the decoded envelope so callers can compare
// results across requests.
func checkResponse(endpoint string, status int, body []byte) (*serve.Envelope, error) {
	var env serve.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("%s: status %d, undecodable body: %v", endpoint, status, err)
	}
	if status != http.StatusOK || !env.OK {
		reason := ""
		if env.Error != nil {
			reason = env.Error.Stage + ": " + env.Error.Reason
		}
		return nil, fmt.Errorf("%s: status %d ok=%v %s", endpoint, status, env.OK, reason)
	}
	var err error
	switch endpoint {
	case "simulate":
		var res struct {
			Stats cache.Stats `json:"stats"`
		}
		if err = json.Unmarshal(env.Result, &res); err == nil {
			err = checkStats(&res.Stats)
		}
	case "analyze":
		var res struct {
			Stats       experiments.MatrixStats `json:"stats"`
			Attribution attr.Report             `json:"attribution"`
			Degraded    []string                `json:"degraded"`
		}
		if err = json.Unmarshal(env.Result, &res); err == nil {
			err = checkAnalyze(res.Stats, res.Attribution, res.Degraded)
		}
	case "transform":
		var res struct {
			Source   string   `json:"transformed_source"`
			Degraded []string `json:"degraded"`
		}
		if err = json.Unmarshal(env.Result, &res); err == nil {
			switch {
			case res.Source == "":
				err = errors.New("empty transformed_source")
			case len(res.Degraded) > 0:
				err = fmt.Errorf("degraded objects: %v", res.Degraded)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", endpoint, err)
	}
	return &env, nil
}

// checkStats checks the simulator's conservation identities on a full
// statistics record.
func checkStats(st *cache.Stats) error {
	if st.Refs <= 0 {
		return fmt.Errorf("no references simulated")
	}
	if st.Reads+st.Writes != st.Refs {
		return fmt.Errorf("reads %d + writes %d != refs %d", st.Reads, st.Writes, st.Refs)
	}
	for _, c := range []struct {
		name  string
		procs []int64
		total int64
	}{
		{"refs", st.ProcRefs, st.Refs},
		{"misses", st.ProcMisses, st.Misses()},
		{"cold", st.ProcCold, st.Cold},
		{"replace", st.ProcReplace, st.Replace},
		{"true-sharing", st.ProcTS, st.TrueShare},
		{"false-sharing", st.ProcFS, st.FalseShare},
	} {
		var sum int64
		for _, v := range c.procs {
			sum += v
		}
		if sum != c.total {
			return fmt.Errorf("per-proc %s sum %d != total %d", c.name, sum, c.total)
		}
	}
	cfg := st.Config
	if cfg.Topology == cache.TopoTwoRing {
		if st.LocalServiced+st.RemoteServiced != st.Misses() {
			return fmt.Errorf("two-ring: local %d + remote %d != misses %d", st.LocalServiced, st.RemoteServiced, st.Misses())
		}
		if want := cfg.LocalLatency*st.LocalServiced + cfg.RemoteLatency*st.RemoteServiced; st.CostCycles != want {
			return fmt.Errorf("two-ring: cost %d != %d·%d + %d·%d", st.CostCycles,
				cfg.LocalLatency, st.LocalServiced, cfg.RemoteLatency, st.RemoteServiced)
		}
	}
	if cfg.Protocol == cache.WriteUpdate && (st.TrueShare != 0 || st.FalseShare != 0) {
		return fmt.Errorf("write-update: true %d / false %d sharing misses, want 0", st.TrueShare, st.FalseShare)
	}
	return nil
}

// checkAnalyze checks an analysis response: the attribution report
// must account for exactly the misses the summary counts (the daemon
// simulates analyze requests on the flat write-invalidate machine).
func checkAnalyze(st experiments.MatrixStats, rep attr.Report, degraded []string) error {
	if st.Refs <= 0 {
		return fmt.Errorf("no references simulated")
	}
	if got := rep.Cold + rep.Replace + rep.TrueShare + rep.FalseShare; got != st.Misses {
		return fmt.Errorf("attributed misses %d != misses %d", got, st.Misses)
	}
	if rep.TrueShare != st.TrueShare || rep.FalseShare != st.FalseShare {
		return fmt.Errorf("attributed sharing %d/%d != stats %d/%d", rep.TrueShare, rep.FalseShare, st.TrueShare, st.FalseShare)
	}
	if st.LocalServiced != 0 || st.RemoteServiced != 0 || st.CostCycles != 0 {
		return fmt.Errorf("flat machine charged ring service (%d/%d/%d)", st.LocalServiced, st.RemoteServiced, st.CostCycles)
	}
	if len(degraded) > 0 {
		return fmt.Errorf("degraded objects: %v", degraded)
	}
	return nil
}
