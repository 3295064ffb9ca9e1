// Package ksr models execution time on a KSR2-like hierarchical
// ring-based shared memory multiprocessor (paper §4).
//
// The machine parameters follow the paper: 128-byte coherence units,
// a miss latency of 175 cycles when serviced on the same ring and 600
// cycles across rings, and 32 processors per ring (56 processors span
// two rings). On top of the base latencies the model charges ring
// contention: every miss and ownership upgrade occupies the ring for a
// fixed number of cycles, and the effective miss latency grows with
// ring utilization (an M/M/1-style queueing term, solved to a fixed
// point per phase). This is the mechanism behind the paper's central
// scalability observation: memory contention from false sharing grows
// more than linearly with the number of processors and eventually
// reverses the speedup trend, while transformed programs keep scaling.
//
// Work is accounted phase by phase (between barrier releases): each
// phase's duration is the maximum over processors of compute cycles
// plus effective miss stall cycles, so load imbalance inside a phase
// costs time even though the simulator's scheduler is round-robin.
// The package is the timing model only: its Clock reads the counters
// of a run its caller executes and simulates.
package ksr

import (
	"context"
	"slices"

	"falseshare/internal/core"
	"falseshare/internal/sim/cache"
	"falseshare/internal/vm"
)

// Config holds the machine model's cache geometry. The ring and timing
// parameters are fixed by the paper; see phaseTime.
type Config struct {
	BlockSize int64 // coherence unit (128 on the KSR2)
	CacheSize int64 // per-processor local (data) cache
	Assoc     int   // associativity
}

// DefaultConfig returns the KSR2-like parameters.
func DefaultConfig() Config {
	return Config{BlockSize: 128, CacheSize: 256 * 1024, Assoc: 4}
}

// Cache returns the simulator configuration of the model's caches for
// nprocs processors: write-invalidate on the flat topology.
func (c Config) Cache(nprocs int) cache.Config {
	return cache.Config{NumProcs: nprocs, BlockSize: c.BlockSize, CacheSize: c.CacheSize, Assoc: c.Assoc}
}

// Result summarizes one execution-time simulation.
type Result struct {
	P      int
	Cycles float64
	// Instrs is the total instruction count across processors.
	Instrs int64
	// Stats is the cache simulation underlying the time model: a copy
	// detached from the simulator, so a kept Result does not hold the
	// simulator's line arrays and block metadata live.
	Stats *cache.Stats
	// Phases is the number of barrier-delimited phases accounted.
	Phases int
}

// phaseSnapshot captures per-processor counters at a phase boundary.
type phaseSnapshot struct {
	instrs []int64
	misses []int64
	txTot  int64 // misses + upgrades, ring transactions
}

// Clock attaches the model's clock to m before m runs, taking
// m.OnBarrier, and returns the function that stops it after a clean
// run. At every barrier release, and once more when stopped, it reads
// m's per-process instruction counts and stats, the live statistics of
// the simulator m's references feed, and prices the phase since the
// last boundary. The reading is exact only when the simulator takes
// each reference inline, on the machine's goroutine.
func Clock(m *vm.Machine, stats *cache.Stats) (stop func() *Result) {
	n := len(m.Procs())
	prev := phaseSnapshot{instrs: make([]int64, n), misses: make([]int64, n)}
	res := &Result{P: n}
	tick := func() {
		cur := phaseSnapshot{instrs: make([]int64, n), misses: slices.Clone(stats.ProcMisses), txTot: stats.Misses() + stats.Upgrades}
		for i, p := range m.Procs() {
			cur.instrs[i] = p.Instrs
		}
		res.Cycles += phaseTime(n, prev, cur)
		res.Phases++
		prev = cur
	}
	m.OnBarrier = tick
	return func() *Result {
		tick()
		st := *stats
		res.Instrs, res.Stats = m.TotalInstrs(), &st
		return res
	}
}

// ExecuteCtx runs the program (already compiled for its process count)
// on the VM, feeds its references to one simulator of cfg's caches
// inline, and prices the run on the Clock. The VM checks ctx
// periodically, so a cancelled run stops mid-execution. The experiment
// cells measure the same way through their measurement memo; this is
// the entry point for callers outside it.
func ExecuteCtx(ctx context.Context, prog *core.Program, cfg Config) (*Result, error) {
	nprocs := int(prog.Layout.Nprocs)
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		return nil, err
	}
	sim, err := cache.New(cfg.Cache(nprocs))
	if err != nil {
		return nil, err
	}
	m := vm.New(bc)
	m.SetContext(ctx)
	stop := Clock(m, sim.Stats())
	if err := m.Run(func(r vm.Ref) { sim.Access(r.Proc, r.Addr, int64(r.Size), r.Write) }); err != nil {
		return nil, err
	}
	return stop(), nil
}

// phaseTime computes the duration of one phase: the slowest
// processor's compute plus miss stalls, with ring-contention-inflated
// miss latency solved to a fixed point.
func phaseTime(nprocs int, prev, cur phaseSnapshot) float64 {
	// The KSR2 of paper §4: 32 processors per ring, 175 cycles for a
	// miss serviced on the requester's ring and 600 across rings.
	const (
		ringSize      = cache.DefaultRingSize
		localLatency  = cache.DefaultLocalLatency
		remoteLatency = cache.DefaultRemoteLatency
		ringOccupancy = 12   // ring cycles consumed per transaction
		cpi           = 1    // cycles per (non-stalled) instruction
		maxUtil       = 0.98 // utilization cap for the queueing term
	)
	tx := float64(cur.txTot - prev.txTot)

	// Base service latency per miss for each processor: local-ring vs
	// cross-ring mix. Processors are assigned to rings in order, so
	// with P <= RingSize everything is local; beyond that a miss
	// crosses rings with probability proportional to the other ring's
	// share of processors.
	crossFrac := 0.0
	if nprocs > ringSize {
		other := float64(nprocs - ringSize)
		crossFrac = other / float64(nprocs) * 2 * (float64(ringSize) / float64(nprocs))
		if crossFrac > 1 {
			crossFrac = 1
		}
	}
	baseLat := localLatency*(1-crossFrac) + remoteLatency*crossFrac

	// Fixed point on the phase duration.
	t := 1.0
	for p := 0; p < nprocs; p++ {
		c := float64(cur.instrs[p]-prev.instrs[p]) * cpi
		if c > t {
			t = c
		}
	}
	for iter := 0; iter < 30; iter++ {
		rho := tx * ringOccupancy / t
		if rho > maxUtil {
			rho = maxUtil
		}
		lat := baseLat + ringOccupancy*rho/(1-rho)
		nt := 1.0
		for p := 0; p < nprocs; p++ {
			c := float64(cur.instrs[p]-prev.instrs[p]) * cpi
			s := float64(cur.misses[p]-prev.misses[p]) * lat
			if c+s > nt {
				nt = c + s
			}
		}
		if diff := nt - t; diff < 0.5 && diff > -0.5 {
			t = nt
			break
		}
		t = nt
	}
	return t
}

// SpeedupCurve converts cycle counts to speedups relative to base
// (typically the uniprocessor run of the unoptimized version, as in
// the paper's Figure 4).
func SpeedupCurve(results []*Result, base float64) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		if r.Cycles > 0 {
			out[i] = base / r.Cycles
		}
	}
	return out
}

// MaxSpeedup returns the best speedup and the processor count where
// it occurs (Table 3's columns).
func MaxSpeedup(counts []int, speedups []float64) (float64, int) {
	best, at := 0.0, 0
	for i, s := range speedups {
		if s > best {
			best, at = s, counts[i]
		}
	}
	return best, at
}
