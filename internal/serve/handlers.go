package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/sim/cache"
)

// Daemon-side defaults for requests that omit the machine shape.
const (
	defaultNprocs    = 8
	defaultBlockSize = 64
	defaultTopFS     = 5
)

// request is the shared request body: all three POST endpoints take
// a superset of these fields; unknown fields are ignored so clients
// can send one shape everywhere.
type request struct {
	// Source is the parC program (required).
	Source string `json:"source"`
	// Nprocs/BlockSize set the machine shape the analysis assumes
	// (defaults 8 and 64).
	Nprocs    int   `json:"nprocs"`
	BlockSize int64 `json:"block_size"`
	// StepBudget lowers the VM step budget below the server cap.
	StepBudget int64 `json:"step_budget"`

	// analyze: how many worst false-sharing objects to list.
	Top int `json:"top"`

	// transform: run translation validation (default true; set
	// "verify": false to skip).
	Verify *bool `json:"verify"`

	// simulate: which program to measure — "original" (default) or
	// "transformed" (compile-time restructuring first).
	Version string `json:"version"`
	// simulate: simulator configuration overrides on top of
	// cache.DefaultConfig (32 KiB, 4-way).
	CacheSize      int64  `json:"cache_size"`
	Assoc          int    `json:"assoc"`
	Protocol       string `json:"protocol"`
	Topology       string `json:"topology"`
	SectorSize     int64  `json:"sector_size"`
	WordInvalidate bool   `json:"word_invalidate"`
	RingSize       int    `json:"ring_size"`
	LocalLatency   int64  `json:"local_latency"`
	RemoteLatency  int64  `json:"remote_latency"`
}

func parseRequest(body []byte) (*request, error) {
	var req request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequest("request", fmt.Errorf("decoding request body: %w", err))
	}
	if req.Source == "" {
		return nil, badRequest("request", errors.New(`missing "source"`))
	}
	if req.Nprocs <= 0 {
		req.Nprocs = defaultNprocs
	}
	if req.BlockSize <= 0 {
		req.BlockSize = defaultBlockSize
	}
	return &req, nil
}

// cacheConfig builds the simulator configuration from the request's
// overrides on top of the default geometry.
func (req *request) cacheConfig() (cache.Config, error) {
	ccfg := cache.DefaultConfig(req.Nprocs, req.BlockSize)
	if req.CacheSize > 0 {
		ccfg.CacheSize = req.CacheSize
	}
	if req.Assoc > 0 {
		ccfg.Assoc = req.Assoc
	}
	ccfg.SectorSize = req.SectorSize
	if req.WordInvalidate {
		// Word invalidation is sector invalidation at word granularity.
		if req.SectorSize != 0 && req.SectorSize != cache.WordSize {
			return ccfg, badRequest("config", &cache.ConfigError{Field: "SectorSize", Reason: fmt.Sprintf(
				"conflicts with word_invalidate, which fixes the invalidation granularity at %d bytes (got sector_size %d)",
				cache.WordSize, req.SectorSize)})
		}
		ccfg.SectorSize = cache.WordSize
	}
	if req.Protocol != "" {
		p, err := cache.ParseProtocol(req.Protocol)
		if err != nil {
			return ccfg, badRequest("config", err)
		}
		ccfg.Protocol = p
	}
	if req.Topology != "" {
		topo, err := cache.ParseTopology(req.Topology)
		if err != nil {
			return ccfg, badRequest("config", err)
		}
		ccfg.Topology = topo
	}
	if req.RingSize > 0 {
		ccfg.RingSize = req.RingSize
	}
	if req.LocalLatency > 0 {
		ccfg.LocalLatency = req.LocalLatency
	}
	if req.RemoteLatency > 0 {
		ccfg.RemoteLatency = req.RemoteLatency
	}
	if err := ccfg.Validate(); err != nil {
		return ccfg, badRequest("config", err)
	}
	return ccfg, nil
}

// analyze runs the restructuring analysis and attributes the
// original program's coherence misses back to objects and fields:
// what the compiler would do, and why, with the simulator's evidence.
func (s *Server) analyze(ctx context.Context, body []byte, budget int64) (any, error) {
	req, err := parseRequest(body)
	if err != nil {
		return nil, err
	}
	res, err := core.RestructureCtx(ctx, req.Source, core.Options{
		Nprocs:    req.Nprocs,
		BlockSize: req.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	ccfg, err := req.cacheConfig()
	if err != nil {
		return nil, err
	}
	st, rep, err := experiments.MeasureConfigAttr(ctx, res.Original, ccfg, budget)
	if err != nil {
		return nil, err
	}

	decisions := make([]string, 0, len(res.Plan.Decisions))
	for _, d := range res.Plan.Decisions {
		decisions = append(decisions, d.String())
	}
	degraded := make([]string, 0, len(res.Degraded))
	for _, d := range res.Degraded {
		degraded = append(degraded, d.String())
	}
	top := req.Top
	if top <= 0 {
		top = defaultTopFS
	}
	return map[string]any{
		"nprocs":      req.Nprocs,
		"block_size":  req.BlockSize,
		"decisions":   decisions,
		"skipped":     res.Plan.Skipped,
		"degraded":    degraded,
		"stats":       experiments.StatsRecord(st),
		"top_fs":      experiments.TopFSObjects(rep, top),
		"attribution": rep,
	}, nil
}

// transform runs the full compile-time restructuring and returns the
// transformed source with the translation-validation report.
func (s *Server) transform(ctx context.Context, body []byte, budget int64) (any, error) {
	req, err := parseRequest(body)
	if err != nil {
		return nil, err
	}
	opt := core.Options{
		Nprocs:       req.Nprocs,
		BlockSize:    req.BlockSize,
		Verify:       req.Verify == nil || *req.Verify,
		VerifyBudget: budget,
	}
	res, err := core.RestructureCtx(ctx, req.Source, opt)
	if err != nil {
		return nil, err
	}

	applied := make([]string, 0, len(res.Applied))
	for _, d := range res.Applied {
		applied = append(applied, d.String())
	}
	degraded := make([]string, 0, len(res.Degraded))
	for _, d := range res.Degraded {
		degraded = append(degraded, d.String())
	}
	out := map[string]any{
		"nprocs":             req.Nprocs,
		"block_size":         req.BlockSize,
		"transformed_source": res.Transformed.Source,
		"applied":            applied,
		"skipped":            res.Plan.Skipped,
		"degraded":           degraded,
		"verified":           opt.Verify,
	}
	if res.Verify != nil {
		out["verify_report"] = res.Verify.String()
	}
	return out, nil
}

// simulate measures one program version under an arbitrary simulator
// configuration and returns the full statistics record.
func (s *Server) simulate(ctx context.Context, body []byte, budget int64) (any, error) {
	req, err := parseRequest(body)
	if err != nil {
		return nil, err
	}
	ccfg, err := req.cacheConfig()
	if err != nil {
		return nil, err
	}

	opt := core.Options{Nprocs: req.Nprocs, BlockSize: req.BlockSize}
	var prog *core.Program
	switch req.Version {
	case "", "original", "orig":
		req.Version = "original"
		prog, err = core.CompileCtx(ctx, req.Source, opt)
	case "transformed", "restructured":
		req.Version = "transformed"
		var res *core.Result
		res, err = core.RestructureCtx(ctx, req.Source, opt)
		if err == nil {
			prog = res.Transformed
		}
	default:
		return nil, badRequest("request", fmt.Errorf(`unknown "version" %q (want "original" or "transformed")`, req.Version))
	}
	if err != nil {
		return nil, err
	}

	st, err := experiments.MeasureConfig(ctx, prog, ccfg, budget)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"version": req.Version,
		"stats":   st,
		"summary": experiments.StatsRecord(st),
	}, nil
}
