package cache

import (
	"fmt"
	"reflect"
	"testing"
)

// TestTopologyMatrixInvariants runs random traces across the full
// (protocol × topology × procs × block) matrix and checks the
// accounting identities the two-level cost model guarantees:
//
//   - miss classes always sum to Misses(), per-processor sums match;
//   - under two-ring, every miss is serviced exactly once, locally or
//     remotely, and CostCycles is exactly the latency-weighted sum;
//   - under flat, all topology counters stay zero.
func TestTopologyMatrixInvariants(t *testing.T) {
	for _, proto := range Protocols() {
		for _, topo := range Topologies() {
			for _, nprocs := range []int{2, 8, 70} {
				for _, block := range []int64{16, 64} {
					name := fmt.Sprintf("%v/%v/p%d/b%d", proto, topo, nprocs, block)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig(nprocs, block)
						cfg.CacheSize = 4 * 1024
						cfg.Assoc = 2
						cfg.Protocol = proto
						cfg.Topology = topo
						if topo == TopoTwoRing {
							// Small rings so even 8 processors span
							// several of them.
							cfg.RingSize = 4
						}
						sim := mustNew(t, cfg)
						for _, r := range genTrace(int64(nprocs)*7+block, nprocs, 15000) {
							sim.Access(r.proc, r.addr, r.size, r.write)
						}
						st := sim.Stats()
						if st.Hits+st.Misses() != st.Refs {
							t.Errorf("hits %d + misses %d != refs %d", st.Hits, st.Misses(), st.Refs)
						}
						var pm, pts, pfs int64
						for p := 0; p < nprocs; p++ {
							pm += st.ProcMisses[p]
							pts += st.ProcTS[p]
							pfs += st.ProcFS[p]
						}
						if pm != st.Misses() || pts != st.TrueShare || pfs != st.FalseShare {
							t.Errorf("per-proc sums diverge: misses %d/%d ts %d/%d fs %d/%d",
								pm, st.Misses(), pts, st.TrueShare, pfs, st.FalseShare)
						}
						if topo == TopoTwoRing {
							if st.LocalServiced+st.RemoteServiced != st.Misses() {
								t.Errorf("service decomposition %d+%d != misses %d",
									st.LocalServiced, st.RemoteServiced, st.Misses())
							}
							want := st.LocalServiced*cfg.LocalLatency + st.RemoteServiced*cfg.RemoteLatency
							if cfg.LocalLatency == 0 {
								want = st.LocalServiced*DefaultLocalLatency + st.RemoteServiced*DefaultRemoteLatency
							}
							if st.CostCycles != want {
								t.Errorf("CostCycles %d != local*%d + remote*%d = %d",
									st.CostCycles, cfg.LocalLatency, cfg.RemoteLatency, want)
							}
						} else {
							if st.LocalServiced != 0 || st.RemoteServiced != 0 || st.CostCycles != 0 {
								t.Errorf("flat topology accumulated cost: local=%d remote=%d cost=%d",
									st.LocalServiced, st.RemoteServiced, st.CostCycles)
							}
						}
					})
				}
			}
		}
	}
}

// TestTwoRingMatchesFlatClassification pins that the topology layer is
// a pure cost observer: the same trace through a flat and a two-ring
// simulator produces identical classification — only the three new
// service counters may differ.
func TestTwoRingMatchesFlatClassification(t *testing.T) {
	cfg := DefaultConfig(8, 64)
	cfg.CacheSize = 4 * 1024
	cfg.Assoc = 2
	flat := mustNew(t, cfg)
	rcfg := cfg
	rcfg.Topology = TopoTwoRing
	rcfg.RingSize = 4
	ring := mustNew(t, rcfg)
	for i, r := range genTrace(42, 8, 20000) {
		kf := flat.Access(r.proc, r.addr, r.size, r.write)
		kr := ring.Access(r.proc, r.addr, r.size, r.write)
		if kf != kr {
			t.Fatalf("ref %d (%+v): flat=%v two-ring=%v", i, r, kf, kr)
		}
	}
	fs, rs := *flat.Stats(), *ring.Stats()
	// Blank the fields that legitimately differ, then demand identity.
	fs.Config, rs.Config = Config{}, Config{}
	rs.LocalServiced, rs.RemoteServiced, rs.CostCycles = 0, 0, 0
	if !reflect.DeepEqual(&fs, &rs) {
		t.Errorf("two-ring topology changed classification\nflat: %sring: %s", &fs, &rs)
	}
	if ring.Stats().CostCycles == 0 {
		t.Error("two-ring run charged no cost; the comparison is vacuous")
	}
}

// TestSameRingSharersServiceLocally is the directed topology test:
// cross-ring cost must never be charged while a same-ring sharer
// exists. A trace confined to ring 0's processors, touching only
// blocks whose home ring is 0, can never be serviced remotely.
func TestSameRingSharersServiceLocally(t *testing.T) {
	cfg := DefaultConfig(8, 64)
	cfg.Topology = TopoTwoRing
	cfg.RingSize = 4 // procs 0-3 on ring 0, 4-7 on ring 1
	sim := mustNew(t, cfg)
	// Even blocks have home ring 0 (block % nrings with nrings == 2).
	for i := 0; i < 4000; i++ {
		proc := i % 4
		blk := int64(2 * (i % 37))
		addr := blk*64 + int64(i%16)*4
		sim.Access(proc, addr, 4, i%3 == 0)
	}
	st := sim.Stats()
	if st.RemoteServiced != 0 {
		t.Errorf("ring-0-only trace serviced %d misses across rings", st.RemoteServiced)
	}
	if st.LocalServiced != st.Misses() {
		t.Errorf("local services %d != misses %d", st.LocalServiced, st.Misses())
	}
	if st.CostCycles != st.Misses()*DefaultLocalLatency {
		t.Errorf("cost %d != misses * %d", st.CostCycles, DefaultLocalLatency)
	}
}

// TestCrossRingServiceCharged is the complementary directed test: a
// block cached only on another ring is always serviced remotely.
func TestCrossRingServiceCharged(t *testing.T) {
	cfg := DefaultConfig(8, 64)
	cfg.Topology = TopoTwoRing
	cfg.RingSize = 4
	sim := mustNew(t, cfg)
	// Proc 0 (ring 0) warms an even block (home ring 0): cold miss,
	// serviced locally by the home ring.
	sim.Access(0, 2*64, 4, true)
	if st := sim.Stats(); st.RemoteServiced != 0 || st.LocalServiced != 1 {
		t.Fatalf("home-ring cold fill mischarged: local=%d remote=%d", st.LocalServiced, st.RemoteServiced)
	}
	// Proc 4 (ring 1) reads it: the only copy lives on ring 0, so the
	// service must cross rings regardless of the home ring.
	sim.Access(4, 2*64, 4, false)
	st := sim.Stats()
	if st.RemoteServiced != 1 {
		t.Fatalf("cross-ring fetch not charged remotely: local=%d remote=%d", st.LocalServiced, st.RemoteServiced)
	}
	if st.CostCycles != DefaultLocalLatency+DefaultRemoteLatency {
		t.Errorf("cost %d != %d + %d", st.CostCycles, DefaultLocalLatency, DefaultRemoteLatency)
	}
	// Proc 5 (ring 1) reads it: its ring-mate's copy now services the
	// miss locally — cross-ring cost never applies with a same-ring
	// sharer.
	sim.Access(5, 2*64, 4, false)
	if got := sim.Stats().RemoteServiced; got != 1 {
		t.Errorf("same-ring sharer ignored: remote serviced %d, want 1", got)
	}
}

// TestSectorMatrixInvariants runs the sector-invalidation modes across
// a (protocol × sector × procs × block) matrix: class accounting must
// stay exact, and whole-line sharer bookkeeping must keep working
// when copies survive invalidation with masked sectors.
func TestSectorMatrixInvariants(t *testing.T) {
	for _, proto := range []Protocol{WriteInvalidate, MESI} {
		for _, sector := range []int64{4, 16, 64} {
			for _, nprocs := range []int{2, 8, 70} {
				for _, block := range []int64{64, 256} {
					if sector > block {
						continue
					}
					name := fmt.Sprintf("%v/s%d/p%d/b%d", proto, sector, nprocs, block)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig(nprocs, block)
						cfg.CacheSize = 4 * 1024
						cfg.Assoc = 2
						cfg.Protocol = proto
						cfg.SectorSize = sector
						sim := mustNew(t, cfg)
						for _, r := range genTrace(int64(nprocs)*3+sector+block, nprocs, 15000) {
							sim.Access(r.proc, r.addr, r.size, r.write)
						}
						st := sim.Stats()
						if st.Hits+st.Misses() != st.Refs {
							t.Errorf("hits %d + misses %d != refs %d", st.Hits, st.Misses(), st.Refs)
						}
						var pm int64
						for p := 0; p < nprocs; p++ {
							pm += st.ProcMisses[p]
						}
						if pm != st.Misses() {
							t.Errorf("per-proc misses %d != total %d", pm, st.Misses())
						}
					})
				}
			}
		}
	}
}

// TestSectorWordSizeEqualsWordInvalidate pins the design equivalence:
// SectorSize == WordSize is exactly the historical word-invalidate
// mode, whose hardwired rule — every touched invalidated word is a
// true-sharing miss — lives on in the reference simulator. Every
// touched invalid sector is a remotely written word, so the
// word-granularity classifier must agree with that rule reference by
// reference, and the stats must be byte-identical, under both
// invalidating protocols.
func TestSectorWordSizeEqualsWordInvalidate(t *testing.T) {
	for _, proto := range []Protocol{WriteInvalidate, MESI} {
		for _, nprocs := range []int{2, 4, 8} {
			for _, block := range []int64{16, 64, 256} {
				cfg := DefaultConfig(nprocs, block)
				cfg.CacheSize = 4 * 1024
				cfg.Assoc = 2
				cfg.Protocol = proto
				cfg.SectorSize = WordSize
				sec := mustNew(t, cfg)
				wi := newRefSim(cfg)
				for i, r := range genTrace(int64(nprocs)*1000+block, nprocs, 25000) {
					ks := sec.Access(r.proc, r.addr, r.size, r.write)
					kw := wi.Access(r.proc, r.addr, r.size, r.write)
					if kw != ks {
						t.Fatalf("%v p%d b%d: ref %d (%+v): word-invalidate=%v sector4=%v",
							proto, nprocs, block, i, r, kw, ks)
					}
				}
				if !reflect.DeepEqual(sec.Stats(), &wi.stats) {
					t.Errorf("%v p%d b%d: SectorSize=4 diverges from word invalidation\nword:   %ssector: %s",
						proto, nprocs, block, &wi.stats, sec.Stats())
				}
			}
		}
	}
}

// TestCoarseSectorsReintroduceFalseSharing is the directed sector
// test: two processors touching different words of the same sector
// false-share at sector granularity (the refetch is a false-sharing
// miss — no word the reader uses was written), while word-granularity
// invalidation eliminates the miss entirely.
func TestCoarseSectorsReintroduceFalseSharing(t *testing.T) {
	run := func(cfg Config) *Stats {
		sim := mustNew(t, cfg)
		// Both processors warm the block, then proc 0 repeatedly
		// writes word 0 while proc 1 reads word 1 — same 32-byte
		// sector, disjoint words.
		sim.Access(1, 4, 4, false)
		sim.Access(0, 0, 4, false)
		for i := 0; i < 50; i++ {
			sim.Access(0, 0, 4, true)
			sim.Access(1, 4, 4, false)
		}
		return sim.Stats()
	}
	base := DefaultConfig(2, 64)

	coarse := base
	coarse.SectorSize = 32
	cs := run(coarse)
	if cs.FalseShare == 0 {
		t.Errorf("32-byte sectors produced no false sharing: %s", cs)
	}
	if cs.TrueShare != 0 {
		t.Errorf("disjoint-word ping-pong misclassified as true sharing: %s", cs)
	}

	word := base
	word.SectorSize = WordSize
	wsS := run(word)
	if got := wsS.TrueShare + wsS.FalseShare; got != 0 {
		t.Errorf("word-granularity invalidation still took %d sharing misses: %s", got, wsS)
	}

	whole := base
	hs := run(whole)
	if hs.FalseShare == 0 {
		t.Errorf("whole-line invalidation produced no false sharing: %s", hs)
	}
}
