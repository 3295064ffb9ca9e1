package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func wiSim(t testing.TB, nprocs int, block int64) *Sim {
	cfg := DefaultConfig(nprocs, block)
	cfg.SectorSize = WordSize
	return mustNew(t, cfg)
}

func TestWordInvalidateKillsFalseSharing(t *testing.T) {
	// The Dubois-style hardware: the FS ping-pong pattern produces no
	// misses at all after warmup.
	s := wiSim(t, 2, 64)
	for i := 0; i < 1000; i++ {
		s.Access(0, 0x1000, 4, true)
		s.Access(1, 0x1004, 4, true)
	}
	st := s.Stats()
	if st.FalseShare != 0 {
		t.Fatalf("word invalidation must eliminate FS misses: %d", st.FalseShare)
	}
	// Only the two cold misses remain.
	if st.Misses() != 2 {
		t.Errorf("misses = %d, want 2 (cold only)", st.Misses())
	}
}

func TestWordInvalidateKeepsTrueSharing(t *testing.T) {
	s := wiSim(t, 2, 64)
	s.Access(0, 0x1000, 4, false) // P0 caches the word
	s.Access(1, 0x1000, 4, true)  // P1 writes it
	if k := s.Access(0, 0x1000, 4, false); k != TrueSharing {
		t.Fatalf("reread of a remotely written word = %v, want true-sharing", k)
	}
}

func TestWordInvalidateRefetchClears(t *testing.T) {
	s := wiSim(t, 2, 64)
	s.Access(0, 0x1000, 4, false)
	s.Access(1, 0x1000, 4, true)
	s.Access(0, 0x1000, 4, false) // true-sharing miss, refetch
	if k := s.Access(0, 0x1000, 4, false); k != Hit {
		t.Fatalf("after refetch = %v, want hit", k)
	}
}

func TestWordInvalidateDoubleSpansWords(t *testing.T) {
	s := wiSim(t, 2, 64)
	s.Access(0, 0x1000, 8, false)
	s.Access(1, 0x1004, 4, true) // writes the second word of the double
	if k := s.Access(0, 0x1000, 8, false); k != TrueSharing {
		t.Fatalf("double overlapping a written word = %v", k)
	}
}

// Properties shared by both protocols, over random traces.
func TestProtocolInvariants(t *testing.T) {
	run := func(seed int64, wordInval bool, nprocs int, block int64) *Stats {
		cfg := DefaultConfig(nprocs, block)
		if wordInval {
			cfg.SectorSize = WordSize
		}
		s := mustNew(t, cfg)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			proc := r.Intn(nprocs)
			addr := 0x1000 + int64(r.Intn(64))*4
			size := int64(4)
			if r.Intn(4) == 0 {
				size = 8
				addr &^= 7
			}
			s.Access(proc, addr, size, r.Intn(3) == 0)
		}
		return s.Stats()
	}
	f := func(seedRaw uint32, wi bool, npRaw, blkRaw uint8) bool {
		nprocs := 1 + int(npRaw%8)
		block := int64(4) << (blkRaw % 7) // 4..256
		st := run(int64(seedRaw), wi, nprocs, block)
		// Accounting closes.
		if st.Hits+st.Misses() != st.Refs {
			return false
		}
		// One processor can never have sharing misses.
		if nprocs == 1 && (st.TrueShare != 0 || st.FalseShare != 0) {
			return false
		}
		// Word-size blocks cannot false-share; neither can the
		// word-invalidate protocol at any block size.
		if (block == 4 || wi) && st.FalseShare != 0 {
			return false
		}
		// Per-proc counters sum to the totals.
		var refs, misses int64
		for p := 0; p < nprocs; p++ {
			refs += st.ProcRefs[p]
			misses += st.ProcMisses[p]
		}
		return refs == st.Refs && misses == st.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: identical traces produce identical statistics.
func TestDeterminism(t *testing.T) {
	mk := func() *Stats {
		s := sim(t, 4, 64)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 5000; i++ {
			s.Access(r.Intn(4), 0x1000+int64(r.Intn(256))*4, 4, r.Intn(2) == 0)
		}
		return s.Stats()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic stats:\n%v\n%v", a, b)
	}
}
