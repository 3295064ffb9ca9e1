package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// refLine is the reference's cache line: the production line as it
// was before its sector state moved to a side table.
type refLine struct {
	tag   int64 // block address
	valid bool
	state byte // stateShared, stateModified or stateExclusive (MESI)
	lru   int64
	// invMask marks per-sector invalidations (SectorSize set): bit s
	// set means sector s of the block was written remotely and must be
	// refetched before use.
	invMask uint64
	// invAt is the time of the oldest outstanding sector invalidation
	// (the classification epoch for sector misses); invBy/invAddr
	// record the write responsible, for false-sharing attribution.
	// All three reset when the line refetches.
	invAt   int64
	invAddr int64
	invBy   int32
}

// refSim is the original map-based, scan-based simulator, kept as the
// correctness oracle for the flat paged-table + sharer-directory
// rewrite (verbatim except that Access follows the same
// most-severe-sub-block return contract as Sim): both implement the
// same protocols, topologies and classification, so for any trace and
// any configuration their Stats must be byte-identical. Only the
// mechanics differ — refSim pays map lookups, per-block allocations
// and O(NumProcs × Assoc) tag scans on every coherence path, which is
// exactly what the flat tables and the multi-word sharer vector
// remove. The scans deleted from the production simulator live on
// here: each coherence helper below walks every processor's cache the
// way the pre-directory code did, so the directory walk is checked
// against first principles rather than against itself.
type refSim struct {
	cfg Config
	// wordInval models SectorSize == WordSize as plain word
	// invalidation: every touched invalidated word is a true-sharing
	// miss, with no word-granularity classifier to agree with.
	wordInval bool
	nsets     int64
	blkShift  uint
	setMask   int64
	nrings    int

	caches [][]refLine
	meta   []map[int64]*refBlockMeta

	wordWriter map[int64]int32
	wordTime   map[int64]int64

	time  int64
	stats Stats
}

type refBlockMeta struct {
	seen      bool
	resident  bool
	lostByInv bool
	lostAt    int64
}

func newRefSim(cfg Config) *refSim {
	if cfg.Assoc <= 0 {
		cfg.Assoc = 4
	}
	if cfg.Topology == TopoTwoRing {
		if cfg.RingSize == 0 {
			cfg.RingSize = DefaultRingSize
		}
		if cfg.LocalLatency == 0 {
			cfg.LocalLatency = DefaultLocalLatency
		}
		if cfg.RemoteLatency == 0 {
			cfg.RemoteLatency = DefaultRemoteLatency
		}
	}
	nsets := cfg.CacheSize / (cfg.BlockSize * int64(cfg.Assoc))
	if nsets < 1 {
		nsets = 1
	}
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	s := &refSim{
		cfg:        cfg,
		wordInval:  cfg.SectorSize == WordSize,
		nsets:      nsets,
		setMask:    nsets - 1,
		wordWriter: map[int64]int32{},
		wordTime:   map[int64]int64{},
	}
	for b := cfg.BlockSize; b > 1; b >>= 1 {
		s.blkShift++
	}
	if cfg.Topology == TopoTwoRing {
		s.nrings = (cfg.NumProcs + cfg.RingSize - 1) / cfg.RingSize
	}
	s.caches = make([][]refLine, cfg.NumProcs)
	s.meta = make([]map[int64]*refBlockMeta, cfg.NumProcs)
	for p := 0; p < cfg.NumProcs; p++ {
		s.caches[p] = make([]refLine, nsets*int64(cfg.Assoc))
		s.meta[p] = map[int64]*refBlockMeta{}
	}
	s.stats.Config = cfg
	s.stats.Sets = nsets
	s.stats.EffectiveCacheSize = nsets * cfg.BlockSize * int64(cfg.Assoc)
	s.stats.ProcRefs = make([]int64, cfg.NumProcs)
	s.stats.ProcMisses = make([]int64, cfg.NumProcs)
	s.stats.ProcCold = make([]int64, cfg.NumProcs)
	s.stats.ProcReplace = make([]int64, cfg.NumProcs)
	s.stats.ProcTS = make([]int64, cfg.NumProcs)
	s.stats.ProcFS = make([]int64, cfg.NumProcs)
	s.stats.ProcRemote = make([]int64, cfg.NumProcs)
	return s
}

func (s *refSim) Access(proc int, addr int64, size int64, write bool) MissKind {
	worst := s.accessBlock(proc, addr, min64(size, s.cfg.BlockSize-addr%s.cfg.BlockSize), write)
	end := addr + size
	next := (addr>>s.blkShift + 1) << s.blkShift
	for next < end {
		n := min64(end-next, s.cfg.BlockSize)
		if k := s.accessBlock(proc, next, n, write); k > worst {
			worst = k
		}
		next += s.cfg.BlockSize
	}
	return worst
}

func (s *refSim) accessBlock(proc int, addr, size int64, write bool) MissKind {
	s.time++
	s.stats.Refs++
	s.stats.ProcRefs[proc]++
	if write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}

	block := addr >> s.blkShift
	set := block & s.setMask
	ways := s.caches[proc][set*int64(s.cfg.Assoc) : (set+1)*int64(s.cfg.Assoc)]

	hitWay := -1
	for w := range ways {
		if ways[w].valid && ways[w].tag == block {
			hitWay = w
			break
		}
	}

	kind := Hit
	if hitWay >= 0 {
		ln := &ways[hitWay]
		if s.wordInval && ln.invMask&s.wordBits(addr, size) != 0 {
			ln.invMask = 0
			ln.lru = s.time
			if write {
				ln.state = stateModified
				s.invalidateWords(proc, block, addr, size)
				s.recordWrite(proc, addr, size)
			} else {
				ln.state = stateShared
			}
			s.stats.TrueShare++
			s.stats.ProcMisses[proc]++
			s.stats.ProcTS[proc]++
			if s.heldElsewhere(proc, block) {
				s.stats.ProcRemote[proc]++
			}
			s.chargeMiss(proc, block)
			return TrueSharing
		}
		ln.lru = s.time
		if write && ln.state == stateShared {
			s.stats.Upgrades++
			if s.cfg.Protocol != WriteUpdate {
				s.invalidateOthers(proc, block)
			}
			ln.state = stateModified
		} else if write && ln.state == stateExclusive {
			s.stats.SilentUpgrades++
		}
		if write {
			ln.state = stateModified
			if s.cfg.Protocol == WriteUpdate {
				s.updateOthers(proc, block)
			}
			if s.wordInval {
				s.invalidateWords(proc, block, addr, size)
			}
			s.recordWrite(proc, addr, size)
		}
		s.stats.Hits++
		return Hit
	}

	bm := s.blockMeta(proc, block)
	switch {
	case !bm.seen:
		kind = Cold
		s.stats.Cold++
		s.stats.ProcCold[proc]++
	case bm.lostByInv:
		if s.modifiedByOtherSince(proc, addr, size, bm.lostAt) {
			kind = TrueSharing
			s.stats.TrueShare++
			s.stats.ProcTS[proc]++
		} else {
			kind = FalseSharing
			s.stats.FalseShare++
			s.stats.ProcFS[proc]++
		}
	default:
		kind = Replacement
		s.stats.Replace++
		s.stats.ProcReplace[proc]++
	}
	s.stats.ProcMisses[proc]++
	remote := s.heldElsewhere(proc, block)
	if remote {
		s.stats.ProcRemote[proc]++
	}
	s.chargeMiss(proc, block)

	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	if ways[victim].valid {
		old := ways[victim].tag
		obm := s.blockMeta(proc, old)
		if obm.resident {
			obm.resident = false
			obm.lostByInv = false
			obm.lostAt = s.time
		}
	}
	st := stateShared
	if write {
		st = stateModified
		if s.cfg.Protocol == WriteUpdate {
			s.updateOthers(proc, block)
		} else {
			s.invalidateOthers(proc, block)
		}
		if s.wordInval {
			s.invalidateWords(proc, block, addr, size)
		}
		s.recordWrite(proc, addr, size)
	} else if s.cfg.Protocol == MESI {
		if remote {
			s.downgradeOthers(proc, block)
		} else {
			st = stateExclusive
		}
	}
	ways[victim] = refLine{tag: block, valid: true, state: st, lru: s.time}
	bm.seen = true
	bm.resident = true
	return kind
}

func (s *refSim) invalidateOthers(proc int, block int64) {
	if s.wordInval {
		return
	}
	set := block & s.setMask
	for p := 0; p < s.cfg.NumProcs; p++ {
		if p == proc {
			continue
		}
		ways := s.caches[p][set*int64(s.cfg.Assoc) : (set+1)*int64(s.cfg.Assoc)]
		for w := range ways {
			if ways[w].valid && ways[w].tag == block {
				ways[w].valid = false
				s.stats.Invalidations++
				bm := s.blockMeta(p, block)
				bm.resident = false
				bm.lostByInv = true
				bm.lostAt = s.time
			}
		}
	}
}

// updateOthers is the write-update fan-out as a full tag scan: one
// Updates count per remote valid copy of the block.
func (s *refSim) updateOthers(proc int, block int64) {
	set := block & s.setMask
	for p := 0; p < s.cfg.NumProcs; p++ {
		if p == proc {
			continue
		}
		ways := s.caches[p][set*int64(s.cfg.Assoc) : (set+1)*int64(s.cfg.Assoc)]
		for w := range ways {
			if ways[w].valid && ways[w].tag == block {
				s.stats.Updates++
			}
		}
	}
}

// downgradeOthers is the MESI read-fill snoop as a full tag scan:
// remote Exclusive copies demote to Shared.
func (s *refSim) downgradeOthers(proc int, block int64) {
	set := block & s.setMask
	for p := 0; p < s.cfg.NumProcs; p++ {
		if p == proc {
			continue
		}
		ways := s.caches[p][set*int64(s.cfg.Assoc) : (set+1)*int64(s.cfg.Assoc)]
		for w := range ways {
			if ways[w].valid && ways[w].tag == block && ways[w].state == stateExclusive {
				ways[w].state = stateShared
			}
		}
	}
}

// chargeMiss mirrors Sim.chargeMiss for the two-ring topology, with
// serviceRemote implemented as a full tag scan: a valid same-ring copy
// means local service, any other valid copy means crossing rings, and
// a block cached nowhere is served by its home ring.
func (s *refSim) chargeMiss(proc int, block int64) {
	if s.cfg.Topology != TopoTwoRing {
		return
	}
	if s.serviceRemote(proc, block) {
		s.stats.RemoteServiced++
		s.stats.CostCycles += s.cfg.RemoteLatency
	} else {
		s.stats.LocalServiced++
		s.stats.CostCycles += s.cfg.LocalLatency
	}
}

func (s *refSim) serviceRemote(proc int, block int64) bool {
	r := proc / s.cfg.RingSize
	cached := false
	set := block & s.setMask
	for p := 0; p < s.cfg.NumProcs; p++ {
		if p == proc {
			continue
		}
		ways := s.caches[p][set*int64(s.cfg.Assoc) : (set+1)*int64(s.cfg.Assoc)]
		for w := range ways {
			if ways[w].valid && ways[w].tag == block {
				if p/s.cfg.RingSize == r {
					return false
				}
				cached = true
			}
		}
	}
	if cached {
		return true
	}
	return s.homeRing(block) != r
}

func (s *refSim) homeRing(block int64) int {
	n := int64(s.nrings)
	h := block % n
	if h < 0 {
		h += n
	}
	return int(h)
}

func (s *refSim) wordBits(addr, size int64) uint64 {
	blockStart := addr >> s.blkShift << s.blkShift
	first := (addr - blockStart) / WordSize
	last := (addr + size - 1 - blockStart) / WordSize
	var m uint64
	for w := first; w <= last && w < 64; w++ {
		m |= 1 << uint(w)
	}
	return m
}

func (s *refSim) invalidateWords(proc int, block, addr, size int64) {
	bits := s.wordBits(addr, size)
	set := block & s.setMask
	for p := 0; p < s.cfg.NumProcs; p++ {
		if p == proc {
			continue
		}
		ways := s.caches[p][set*int64(s.cfg.Assoc) : (set+1)*int64(s.cfg.Assoc)]
		for w := range ways {
			if ways[w].valid && ways[w].tag == block {
				if ways[w].invMask&bits != bits {
					s.stats.Invalidations++
				}
				ways[w].invMask |= bits
			}
		}
	}
}

func (s *refSim) heldElsewhere(proc int, block int64) bool {
	set := block & s.setMask
	for p := 0; p < s.cfg.NumProcs; p++ {
		if p == proc {
			continue
		}
		ways := s.caches[p][set*int64(s.cfg.Assoc) : (set+1)*int64(s.cfg.Assoc)]
		for w := range ways {
			if ways[w].valid && ways[w].tag == block {
				return true
			}
		}
	}
	return false
}

func (s *refSim) recordWrite(proc int, addr, size int64) {
	for w := addr / WordSize; w <= (addr+size-1)/WordSize; w++ {
		s.wordWriter[w] = int32(proc)
		s.wordTime[w] = s.time
	}
}

func (s *refSim) modifiedByOtherSince(proc int, addr, size, t int64) bool {
	for w := addr / WordSize; w <= (addr+size-1)/WordSize; w++ {
		if s.wordTime[w] >= t && s.wordWriter[w] != int32(proc) {
			return true
		}
	}
	return false
}

func (s *refSim) blockMeta(proc int, block int64) *refBlockMeta {
	bm := s.meta[proc][block]
	if bm == nil {
		bm = &refBlockMeta{}
		s.meta[proc][block] = bm
	}
	return bm
}

// ---------------------------------------------------------------------------

// traceRef is one synthetic trace record for the equivalence tests.
type traceRef struct {
	proc  int
	addr  int64
	size  int64
	write bool
}

// genTrace builds a deterministic mixed trace: mostly word accesses
// over a shared heap with per-processor hot regions, a slice of
// block-spanning accesses, and a sprinkle of far outliers to exercise
// the overflow paths of the paged tables.
func genTrace(seed int64, nprocs, n int) []traceRef {
	rng := rand.New(rand.NewSource(seed))
	out := make([]traceRef, n)
	for i := range out {
		proc := rng.Intn(nprocs)
		var addr int64
		switch r := rng.Intn(64); {
		case r == 0: // rare far outlier: beyond the direct page directory
			addr = (int64(1) << 40) + rng.Int63n(4096)
		case r < 20: // per-processor region (mostly private)
			addr = int64(0x10000*(proc+1)) + rng.Int63n(2048)
		default: // shared heap
			addr = 0x1000 + rng.Int63n(16*1024)
		}
		addr -= addr % WordSize
		size := int64(4)
		if rng.Intn(5) == 0 {
			size = 4 * (1 + rng.Int63n(16)) // up to 64 bytes, spans blocks
		}
		out[i] = traceRef{proc: proc, addr: addr, size: size, write: rng.Intn(10) < 3}
	}
	return out
}

// TestFlatMatchesReference replays identical traces through the flat
// paged-table simulator and the original map-based one across the full
// (procs × block × protocol) matrix and requires byte-identical Stats
// — every global counter, every miss class, the whole per-processor
// decomposition — and identical per-reference return values.
func TestFlatMatchesReference(t *testing.T) {
	nprocsList := []int{1, 2, 4, 8}
	blockList := []int64{4, 16, 64, 128, 256}
	for _, nprocs := range nprocsList {
		for _, block := range blockList {
			for _, wi := range []bool{false, true} {
				cfg := DefaultConfig(nprocs, block)
				// Shrink the cache so replacements actually happen.
				cfg.CacheSize = 4 * 1024
				cfg.Assoc = 2
				if wi {
					cfg.SectorSize = WordSize
				}
				flat, err := New(cfg)
				if err != nil {
					t.Fatalf("New(%+v): %v", cfg, err)
				}
				ref := newRefSim(cfg)
				tr := genTrace(int64(nprocs)*1000+block, nprocs, 25000)
				for i, r := range tr {
					kf := flat.Access(r.proc, r.addr, r.size, r.write)
					kr := ref.Access(r.proc, r.addr, r.size, r.write)
					if kf != kr {
						t.Fatalf("p%d b%d wi=%v: ref %d (%+v): flat=%v ref=%v",
							nprocs, block, wi, i, r, kf, kr)
					}
				}
				if !reflect.DeepEqual(flat.Stats(), &ref.stats) {
					t.Errorf("p%d b%d wi=%v: stats diverge\nflat: %sref:  %s",
						nprocs, block, wi, flat.Stats(), &ref.stats)
				}
			}
		}
	}
}

// TestFlatMatchesReferenceTinyCache thrashes a minimal cache (1 set,
// direct-mapped at the limit) so the eviction bookkeeping paths get
// the same byte-identity treatment.
func TestFlatMatchesReferenceTinyCache(t *testing.T) {
	cfg := Config{NumProcs: 3, BlockSize: 32, CacheSize: 64, Assoc: 1}
	flat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSim(cfg)
	for _, r := range genTrace(99, 3, 40000) {
		flat.Access(r.proc, r.addr, r.size, r.write)
		ref.Access(r.proc, r.addr, r.size, r.write)
	}
	if !reflect.DeepEqual(flat.Stats(), &ref.stats) {
		t.Errorf("stats diverge\nflat: %sref:  %s", flat.Stats(), &ref.stats)
	}
}

// TestFlatMatchesReferenceWideProcs pins the first multi-word sharer
// vector width: 70 processors need K=2 directory words per block, the
// narrowest configuration where the old single-uint64 mask could not
// represent every processor and the deleted wideProcs fallback used to
// take over.
func TestFlatMatchesReferenceWideProcs(t *testing.T) {
	cfg := DefaultConfig(70, 64)
	flat, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if flat.sharers.words != 2 {
		t.Fatalf("70 processors: sharer vector words = %d, want 2", flat.sharers.words)
	}
	ref := newRefSim(cfg)
	for _, r := range genTrace(7, 70, 30000) {
		flat.Access(r.proc, r.addr, r.size, r.write)
		ref.Access(r.proc, r.addr, r.size, r.write)
	}
	if !reflect.DeepEqual(flat.Stats(), &ref.stats) {
		t.Errorf("stats diverge\nflat: %sref:  %s", flat.Stats(), &ref.stats)
	}
}

// TestFlatMatchesReferenceWideMatrix is the full wide-processor
// byte-identity matrix: {70, 128, 1024} processors × every protocol ×
// both topologies, flat multi-word directory vs the map-based scan
// oracle. 70 straddles a word boundary (K=2 with a partial top word),
// 128 is an exact two-word vector, and 1024 is the paper-scale
// sixteen-word machine. Trace lengths shrink with width because the
// oracle is O(procs) per coherence event — identity, not throughput,
// is what this test buys.
func TestFlatMatchesReferenceWideMatrix(t *testing.T) {
	type dims struct {
		nprocs int
		refs   int
	}
	widths := []dims{{70, 20000}, {128, 20000}, {1024, 4000}}
	if testing.Short() {
		widths = []dims{{70, 8000}, {128, 8000}, {1024, 1500}}
	}
	for _, d := range widths {
		for _, proto := range Protocols() {
			for _, topo := range Topologies() {
				cfg := DefaultConfig(d.nprocs, 64)
				// Small cache: replacements and re-fills churn the
				// sharer vector instead of letting it grow monotonic.
				cfg.CacheSize = 8 * 1024
				cfg.Assoc = 2
				cfg.Protocol = proto
				cfg.Topology = topo
				flat, err := New(cfg)
				if err != nil {
					t.Fatalf("New(p%d %v %v): %v", d.nprocs, proto, topo, err)
				}
				if want := int64((d.nprocs + 63) / 64); flat.sharers.words != want {
					t.Fatalf("p%d: sharer vector words = %d, want %d", d.nprocs, flat.sharers.words, want)
				}
				ref := newRefSim(cfg)
				tr := genTrace(int64(d.nprocs)*31+int64(proto)*7+int64(topo), d.nprocs, d.refs)
				for i, r := range tr {
					kf := flat.Access(r.proc, r.addr, r.size, r.write)
					kr := ref.Access(r.proc, r.addr, r.size, r.write)
					if kf != kr {
						t.Fatalf("p%d %v %v: ref %d (%+v): flat=%v ref=%v",
							d.nprocs, proto, topo, i, r, kf, kr)
					}
				}
				if !reflect.DeepEqual(flat.Stats(), &ref.stats) {
					t.Errorf("p%d %v %v: stats diverge\nflat: %sref:  %s",
						d.nprocs, proto, topo, flat.Stats(), &ref.stats)
				}
			}
		}
	}
}
