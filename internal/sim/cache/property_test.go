package cache

import (
	"math/rand"
	"testing"
)

// The miss-taxonomy invariant: every reference is a hit or exactly one
// of cold / replacement / true-sharing / false-sharing, and the
// per-processor decomposition sums back to the totals. This must hold
// for ANY access trace — the property the parallel experiment runner
// leans on when it trusts per-job stats computed on worker goroutines.

// checkInvariants asserts the taxonomy and PerProc sums on s.
func checkInvariants(t *testing.T, s *Stats, ctx string) {
	t.Helper()
	if got := s.Cold + s.Replace + s.TrueShare + s.FalseShare; got != s.Misses() {
		t.Errorf("%s: cold+replace+true+false = %d, Misses() = %d", ctx, got, s.Misses())
	}
	if s.Hits+s.Misses() != s.Refs {
		t.Errorf("%s: hits (%d) + misses (%d) != refs (%d)", ctx, s.Hits, s.Misses(), s.Refs)
	}
	if s.Reads+s.Writes != s.Refs {
		t.Errorf("%s: reads (%d) + writes (%d) != refs (%d)", ctx, s.Reads, s.Writes, s.Refs)
	}

	var refs, misses, cold, repl, ts, fs int64
	for _, p := range s.PerProc() {
		refs += p.Refs
		misses += p.Misses
		cold += p.Cold
		repl += p.Replace
		ts += p.TrueShare
		fs += p.FalseShare
		if p.Cold+p.Replace+p.TrueShare+p.FalseShare != p.Misses {
			t.Errorf("%s: proc %d: class sum %d != misses %d", ctx,
				p.Proc, p.Cold+p.Replace+p.TrueShare+p.FalseShare, p.Misses)
		}
		if p.Remote > p.Misses {
			t.Errorf("%s: proc %d: remote (%d) exceeds misses (%d)", ctx, p.Proc, p.Remote, p.Misses)
		}
	}
	if refs != s.Refs {
		t.Errorf("%s: PerProc refs sum %d != %d", ctx, refs, s.Refs)
	}
	if misses != s.Misses() {
		t.Errorf("%s: PerProc miss sum %d != %d", ctx, misses, s.Misses())
	}
	if cold != s.Cold || repl != s.Replace || ts != s.TrueShare || fs != s.FalseShare {
		t.Errorf("%s: PerProc class sums (%d,%d,%d,%d) != totals (%d,%d,%d,%d)",
			ctx, cold, repl, ts, fs, s.Cold, s.Replace, s.TrueShare, s.FalseShare)
	}
}

// TestPerProcMissTaxonomyInvariant drives randomized traces through
// every interesting configuration corner: tiny caches (forced
// replacement), small and large blocks, word-invalidate mode, and
// skewed processor mixes.
func TestPerProcMissTaxonomyInvariant(t *testing.T) {
	type scenario struct {
		name    string
		cfg     Config
		addrs   int64 // address-space size
		refs    int
		maxSize int64 // access sizes 4..maxSize (crossing blocks when > block)
	}
	scenarios := []scenario{
		{"dense-small-blocks", Config{NumProcs: 4, BlockSize: 16, CacheSize: 1024, Assoc: 2}, 4 * 1024, 20000, 8},
		{"large-blocks", Config{NumProcs: 8, BlockSize: 128, CacheSize: 4096, Assoc: 4}, 64 * 1024, 20000, 8},
		{"thrash-tiny-cache", Config{NumProcs: 3, BlockSize: 32, CacheSize: 256, Assoc: 1}, 32 * 1024, 20000, 4},
		{"word-invalidate", Config{NumProcs: 6, BlockSize: 64, CacheSize: 2048, Assoc: 4, SectorSize: WordSize}, 8 * 1024, 20000, 8},
		{"spanning-accesses", Config{NumProcs: 4, BlockSize: 16, CacheSize: 2048, Assoc: 4}, 8 * 1024, 15000, 64},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5eed + int64(len(sc.name))))
			s := mustNew(t, sc.cfg)
			for i := 0; i < sc.refs; i++ {
				proc := rng.Intn(sc.cfg.NumProcs)
				if rng.Intn(4) == 0 {
					// Skew a quarter of the traffic onto processor 0 to
					// exercise asymmetric sharing.
					proc = 0
				}
				addr := rng.Int63n(sc.addrs)
				addr -= addr % WordSize
				size := int64(4)
				if sc.maxSize > 4 {
					size += 4 * rng.Int63n(sc.maxSize/4)
				}
				write := rng.Intn(10) < 3
				s.Access(proc, addr, size, write)
			}
			st := s.Stats()
			if st.Refs == 0 || st.Misses() == 0 {
				t.Fatal("degenerate trace: no refs or no misses")
			}
			checkInvariants(t, st, sc.name)
		})
	}
}

// TestPerProcInvariantSharedCounters reruns one randomized trace and
// checks the simulation is reproducible reference-for-reference (the
// determinism fssim's sharded block sweep relies on).
func TestPerProcInvariantSharedCounters(t *testing.T) {
	gen := func() *Stats {
		rng := rand.New(rand.NewSource(42))
		s := mustNew(t, Config{NumProcs: 5, BlockSize: 64, CacheSize: 2048, Assoc: 2})
		for i := 0; i < 30000; i++ {
			s.Access(rng.Intn(5), rng.Int63n(16*1024)&^3, 4, rng.Intn(2) == 0)
		}
		return s.Stats()
	}
	a, b := gen(), gen()
	if a.Config != b.Config {
		t.Fatal("config drift")
	}
	if a.Refs != b.Refs || a.Hits != b.Hits || a.Cold != b.Cold || a.Replace != b.Replace ||
		a.TrueShare != b.TrueShare || a.FalseShare != b.FalseShare ||
		a.Upgrades != b.Upgrades || a.Invalidations != b.Invalidations {
		t.Errorf("identical traces produced different stats:\n%v\n%v", a, b)
	}
	for p := range a.ProcRefs {
		if a.ProcRefs[p] != b.ProcRefs[p] || a.ProcFS[p] != b.ProcFS[p] || a.ProcTS[p] != b.ProcTS[p] {
			t.Errorf("proc %d counters differ across identical traces", p)
		}
	}
	checkInvariants(t, a, "rerun")
}
