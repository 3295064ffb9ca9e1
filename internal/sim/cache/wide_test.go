package cache

import (
	"fmt"
	"reflect"
	"testing"
)

// Wide-machine regression tests: the multi-word sharer directory must
// uphold the same accounting identities at 128 and 1024 processors
// that the narrow (single-word) configurations have always been held
// to. These run under -race in CI, so a data race anywhere on the
// wide coherence paths fails here too.

// TestTopologyWideCostIdentities asserts the two-ring cost identities
// — Local + Remote == Misses and CostCycles == 175·Local + 600·Remote
// — at 128 and 1024 processors with the paper's default ring geometry
// (RingSize 32: 4 and 32 rings respectively), plus the full miss
// taxonomy invariants.
func TestTopologyWideCostIdentities(t *testing.T) {
	refs := 30000
	if testing.Short() {
		refs = 10000
	}
	for _, nprocs := range []int{128, 1024} {
		t.Run(fmt.Sprintf("p%d", nprocs), func(t *testing.T) {
			cfg := DefaultConfig(nprocs, 64)
			cfg.CacheSize = 8 * 1024
			cfg.Assoc = 2
			cfg.Topology = TopoTwoRing // default RingSize 32
			sim := mustNew(t, cfg)
			for _, r := range genTrace(int64(nprocs)*13, nprocs, refs) {
				sim.Access(r.proc, r.addr, r.size, r.write)
			}
			st := sim.Stats()
			checkInvariants(t, st, fmt.Sprintf("p%d two-ring", nprocs))
			if st.LocalServiced+st.RemoteServiced != st.Misses() {
				t.Errorf("service decomposition %d+%d != misses %d",
					st.LocalServiced, st.RemoteServiced, st.Misses())
			}
			want := st.LocalServiced*DefaultLocalLatency + st.RemoteServiced*DefaultRemoteLatency
			if st.CostCycles != want {
				t.Errorf("CostCycles %d != %d·local + %d·remote = %d",
					st.CostCycles, DefaultLocalLatency, DefaultRemoteLatency, want)
			}
			if st.LocalServiced == 0 || st.RemoteServiced == 0 {
				t.Errorf("degenerate service split (local=%d remote=%d); the identities are vacuous",
					st.LocalServiced, st.RemoteServiced)
			}
		})
	}
}

// TestMESIConservationWide asserts the upgrade conservation law —
// WI.Upgrades == MESI.Upgrades + MESI.SilentUpgrades, with identical
// classification otherwise — at 128 and 1024 processors, where the
// sole-sharer check behind the E state walks a multi-word vector.
func TestMESIConservationWide(t *testing.T) {
	refs := 30000
	if testing.Short() {
		refs = 10000
	}
	for _, nprocs := range []int{128, 1024} {
		t.Run(fmt.Sprintf("p%d", nprocs), func(t *testing.T) {
			cfg := DefaultConfig(nprocs, 64)
			cfg.CacheSize = 8 * 1024
			cfg.Assoc = 2
			wi := mustNew(t, cfg)
			mcfg := cfg
			mcfg.Protocol = MESI
			mesi := mustNew(t, mcfg)
			for i, r := range genTrace(int64(nprocs)*17, nprocs, refs) {
				kw := wi.Access(r.proc, r.addr, r.size, r.write)
				km := mesi.Access(r.proc, r.addr, r.size, r.write)
				if kw != km {
					t.Fatalf("ref %d (%+v): WI=%v MESI=%v", i, r, kw, km)
				}
			}
			ws, ms := wi.Stats(), mesi.Stats()
			if ws.Upgrades != ms.Upgrades+ms.SilentUpgrades {
				t.Errorf("conservation law broken: WI upgrades %d != MESI %d + silent %d",
					ws.Upgrades, ms.Upgrades, ms.SilentUpgrades)
			}
			if ms.SilentUpgrades == 0 {
				t.Error("MESI saw no silent upgrades; the conservation check is vacuous")
			}
			got, want := *foldUpgrades(ms), *foldUpgrades(ws)
			got.Config, want.Config = Config{}, Config{}
			if !reflect.DeepEqual(&got, &want) {
				t.Errorf("p%d: MESI classification diverges from WI\nmesi: %swi:   %s",
					nprocs, &got, &want)
			}
		})
	}
}

// TestSectorBit63Exercised pins the widest legal sector geometry: a
// 256-byte block with one-word sectors has exactly 64 of them, so the
// block's last word maps to invalidation-mask bit 63 — the edge the
// w < 64 clamp in sectorBits sits on. If a future change relaxed the
// Validate cap without widening the mask, this is the test that
// catches the silent truncation.
func TestSectorBit63Exercised(t *testing.T) {
	cfg := Config{NumProcs: 2, BlockSize: 256, CacheSize: 32 * 1024, Assoc: 4, SectorSize: WordSize}
	s := mustNew(t, cfg)
	if got := s.sectorBits(252, 4); got != 1<<63 {
		t.Fatalf("sectorBits(252, 4) = %#x, want bit 63 (%#x)", got, uint64(1)<<63)
	}
	if got := s.sectorBits(0, 256); got != ^uint64(0) {
		t.Fatalf("sectorBits(0, 256) = %#x, want all 64 bits set", got)
	}

	// Behavioral check: proc 1 caches the block, proc 0 writes its
	// last word. The write must land on bit 63 of proc 1's copy — the
	// unwritten first word still hits, the written last word is a
	// true-sharing refetch.
	s.Access(1, 0, 4, false)
	s.Access(0, 252, 4, true)
	if k := s.Access(1, 0, 4, false); k != Hit {
		t.Errorf("read of unwritten word 0: got %v, want %v", k, Hit)
	}
	if k := s.Access(1, 252, 4, false); k != TrueSharing {
		t.Errorf("read of remotely written word 63: got %v, want %v", k, TrueSharing)
	}
}

// TestEffectiveGeometrySurfaced pins the cache-geometry rounding
// contract documented on Config.CacheSize: a CacheSize whose set
// division is not a power of two simulates the next smaller
// power-of-two geometry, and Stats must say so. 48 KB at 64-byte
// blocks, associativity 4, divides to 192 sets and therefore actually
// simulates 128 sets — a 32 KB machine.
func TestEffectiveGeometrySurfaced(t *testing.T) {
	cfg := DefaultConfig(4, 64)
	cfg.CacheSize = 48 * 1024
	s := mustNew(t, cfg)
	if got := s.Stats().Sets; got != 128 {
		t.Errorf("48 KB / (64 B × 4-way): Sets = %d, want 128", got)
	}
	if got := s.Stats().EffectiveCacheSize; got != 32*1024 {
		t.Errorf("48 KB config: EffectiveCacheSize = %d, want %d", got, 32*1024)
	}

	// An exact power-of-two geometry loses nothing.
	exact := mustNew(t, DefaultConfig(4, 64))
	if st := exact.Stats(); st.Sets != 128 || st.EffectiveCacheSize != 32*1024 {
		t.Errorf("32 KB config: Sets=%d EffectiveCacheSize=%d, want 128/%d",
			st.Sets, st.EffectiveCacheSize, 32*1024)
	}
}
