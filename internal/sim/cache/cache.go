// Package cache implements the trace-driven multiprocessor cache
// simulator used to measure false sharing (paper §4): per-processor
// first-level caches kept coherent by a write-invalidate protocol,
// with miss classification at word granularity.
//
// Miss taxonomy:
//
//   - cold: the processor touches the block for the first time;
//   - replacement: the processor lost the block to eviction
//     (capacity/conflict) and re-references it;
//   - invalidation misses: the processor lost the block to another
//     processor's write. They split into
//     true sharing — a word accessed by the missing reference was
//     written by another processor since this processor lost the
//     block — and
//     false sharing — it was not: only *other* words of the block
//     changed, so with a one-word block the miss would not exist.
//
// This follows the classification used by Eggers/Jeremiassen and
// Torrellas et al.
//
// The per-reference bookkeeping is kept in flat paged tables rather
// than hash maps: every figure and table of the paper is produced by
// replaying tens of millions of references through Access, so the
// classification state (per-processor block metadata, per-word last
// writer/time) is indexed directly by block and word number through a
// two-level page directory. Pages are allocated on first touch and
// metadata is stored by value, so the steady-state hot path performs
// no hashing and no allocation.
package cache

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordSize is the sharing-classification granularity in bytes.
const WordSize = 4

// Config describes one simulated cache configuration.
type Config struct {
	NumProcs  int
	BlockSize int64 // bytes, power of two, >= 4

	// CacheSize is the per-processor first-level cache in bytes.
	// Rounding contract: New derives the set count as CacheSize /
	// (BlockSize × Assoc) rounded DOWN to a power of two (minimum 1)
	// so block numbers can be masked into sets. A CacheSize whose
	// division is not already a power of two therefore simulates the
	// next smaller power-of-two geometry — e.g. 48 KB with 64-byte
	// blocks at associativity 4 simulates 128 sets (32 KB), not 192.
	// The geometry actually simulated is surfaced as Stats.Sets and
	// Stats.EffectiveCacheSize in every report and manifest.
	CacheSize int64
	Assoc     int // set associativity (LRU); <= 0 defaults to 4

	// SectorSize enables sub-block (sector) invalidation: writes
	// invalidate remote copies at SectorSize-byte granularity instead
	// of killing the whole line. 0 (the default) keeps whole-line
	// invalidation. Must be a power of two in [WordSize, BlockSize]
	// with at most 64 sectors per block. Sector misses are classified
	// at word granularity: touching an invalidated sector whose
	// accessed words were NOT remotely written is a false-sharing miss
	// — sector granularity interpolates between word-invalidate
	// hardware (no false sharing) and whole-block invalidation.
	//
	// SectorSize == WordSize is the hardware alternative of Dubois et
	// al. (paper §6): writes invalidate remote copies at word rather
	// than block granularity, so a subsequent read of an *unwritten*
	// word in the block still hits, and every sector miss is true
	// sharing. This eliminates false-sharing misses entirely in
	// hardware, at the cost of per-word valid bits; the ablations
	// compare it against the compile-time transformations.
	SectorSize int64

	// Protocol selects the coherence protocol (write-invalidate,
	// MESI, write-update); the zero value is the historical
	// write-invalidate. See protocol.go.
	Protocol Protocol

	// Topology selects the machine shape for miss costing; the zero
	// value (flat) charges nothing. TopoTwoRing models the KSR2's
	// two-level rings: RingSize processors per ring, LocalLatency
	// cycles for a same-ring miss service, RemoteLatency across rings
	// (defaults 32/175/600, the paper's numbers).
	Topology      Topology
	RingSize      int
	LocalLatency  int64
	RemoteLatency int64
}

// ConfigError reports an invalid simulator configuration, naming the
// offending field.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("cache: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration the way New does. A non-power-of-
// two BlockSize would miscompute the block shift, so every addr>>shift
// block number — and with it every classification — would be garbage;
// more than 64 sectors per block would overflow the per-sector uint64
// invalidation mask. Both are rejected here rather than silently
// producing wrong data. Assoc 0 is allowed (New defaults it to 4).
func (c Config) Validate() error {
	if c.NumProcs < 1 {
		return &ConfigError{"NumProcs", fmt.Sprintf("must be >= 1 (got %d)", c.NumProcs)}
	}
	if c.BlockSize < WordSize {
		return &ConfigError{"BlockSize", fmt.Sprintf("must be >= %d bytes (got %d)", WordSize, c.BlockSize)}
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return &ConfigError{"BlockSize", fmt.Sprintf("must be a power of two (got %d)", c.BlockSize)}
	}
	if c.CacheSize < c.BlockSize {
		return &ConfigError{"CacheSize", fmt.Sprintf("must hold at least one block (%d bytes); got %d", c.BlockSize, c.CacheSize)}
	}
	if c.Assoc < 0 {
		return &ConfigError{"Assoc", fmt.Sprintf("must be >= 0 (got %d)", c.Assoc)}
	}
	if c.Protocol < 0 || c.Protocol >= protocolCount {
		return &ConfigError{"Protocol", fmt.Sprintf("unknown protocol %d", int(c.Protocol))}
	}
	if c.Topology < 0 || c.Topology >= topologyCount {
		return &ConfigError{"Topology", fmt.Sprintf("unknown topology %d", int(c.Topology))}
	}
	if c.SectorSize != 0 {
		if c.SectorSize < WordSize {
			return &ConfigError{"SectorSize", fmt.Sprintf("must be >= %d bytes (got %d)", WordSize, c.SectorSize)}
		}
		if c.SectorSize&(c.SectorSize-1) != 0 {
			return &ConfigError{"SectorSize", fmt.Sprintf("must be a power of two (got %d)", c.SectorSize)}
		}
		if c.SectorSize > c.BlockSize {
			return &ConfigError{"SectorSize", fmt.Sprintf("must not exceed BlockSize %d (got %d)", c.BlockSize, c.SectorSize)}
		}
		if c.BlockSize/c.SectorSize > 64 {
			return &ConfigError{"SectorSize", fmt.Sprintf(
				"sector invalidation tracks at most 64 sectors per block; %d-byte sectors in a %d-byte block need %d",
				c.SectorSize, c.BlockSize, c.BlockSize/c.SectorSize)}
		}
	}
	if c.Protocol == WriteUpdate && c.SectorSize != 0 {
		// An update protocol never invalidates remote copies, so the
		// invalidation granularity is meaningless with it — reject the
		// combination instead of silently ignoring the knob.
		return &ConfigError{"Protocol", "write-update never invalidates; SectorSize does not apply"}
	}
	if c.Topology == TopoTwoRing {
		if c.RingSize < 0 {
			return &ConfigError{"RingSize", fmt.Sprintf("must be >= 0 (got %d; 0 takes the KSR2 default of %d)", c.RingSize, DefaultRingSize)}
		}
		if c.LocalLatency < 0 || c.RemoteLatency < 0 {
			return &ConfigError{"LocalLatency", fmt.Sprintf(
				"ring latencies must be >= 0 (got local %d, remote %d; 0 takes the KSR2 defaults %d/%d)",
				c.LocalLatency, c.RemoteLatency, DefaultLocalLatency, DefaultRemoteLatency)}
		}
	} else {
		if c.RingSize != 0 || c.LocalLatency != 0 || c.RemoteLatency != 0 {
			return &ConfigError{"Topology", fmt.Sprintf(
				"ring parameters (RingSize %d, LocalLatency %d, RemoteLatency %d) require Topology two-ring",
				c.RingSize, c.LocalLatency, c.RemoteLatency)}
		}
	}
	return nil
}

// DefaultConfig is the paper's simulated machine: 32 KB first-level
// caches (infinite second level) with the given block size.
func DefaultConfig(nprocs int, blockSize int64) Config {
	return Config{NumProcs: nprocs, BlockSize: blockSize, CacheSize: 32 * 1024, Assoc: 4}
}

// MissKind classifies one reference's outcome. The order is the
// severity order Access uses for block-spanning references: sharing
// misses rank above replacement and cold, and false sharing — the
// avoidable class this whole system exists to eliminate — ranks above
// true sharing.
type MissKind int

const (
	Hit MissKind = iota
	Cold
	Replacement
	TrueSharing
	FalseSharing
)

func (k MissKind) String() string {
	switch k {
	case Hit:
		return "hit"
	case Cold:
		return "cold"
	case Replacement:
		return "replacement"
	case TrueSharing:
		return "true-sharing"
	case FalseSharing:
		return "false-sharing"
	}
	return "miss?"
}

// Stats accumulates simulation results.
type Stats struct {
	Config Config

	// Sets and EffectiveCacheSize record the cache geometry actually
	// simulated: the set count is CacheSize / (BlockSize × Assoc)
	// rounded down to a power of two (see the rounding contract on
	// Config.CacheSize), so EffectiveCacheSize — Sets × BlockSize ×
	// Assoc — can be smaller than the CacheSize the configuration
	// names. Surfaced here so the round-down is visible in every
	// stats report and manifest instead of silently shrinking the
	// machine.
	Sets               int64
	EffectiveCacheSize int64

	Refs   int64
	Reads  int64
	Writes int64

	Hits       int64
	Cold       int64
	Replace    int64
	TrueShare  int64
	FalseShare int64

	// Upgrades counts write hits to shared lines (ownership
	// acquisitions that invalidate other copies but transfer no data).
	Upgrades int64
	// Invalidations counts line invalidations caused in other caches.
	Invalidations int64

	// SilentUpgrades counts MESI Exclusive→Modified transitions:
	// ownership acquisitions the E state makes free (no bus
	// transaction). Always zero outside the MESI protocol. For any
	// trace, write-invalidate's Upgrades equals MESI's Upgrades +
	// SilentUpgrades — the E state converts bus upgrades into silent
	// ones, it never changes miss classification.
	SilentUpgrades int64
	// Updates counts remote cached copies refreshed by writes under
	// the write-update protocol (one per copy per broadcast write).
	// Always zero outside write-update.
	Updates int64

	// Two-level topology decomposition (TopoTwoRing; all zero on the
	// flat topology): every miss is serviced either on the
	// requester's own ring or across rings, and CostCycles totals the
	// asymmetric service latencies — exactly LocalServiced *
	// LocalLatency + RemoteServiced * RemoteLatency.
	LocalServiced  int64
	RemoteServiced int64
	CostCycles     int64

	// Per-processor counters for the execution-time model and the
	// per-miss-class decomposition (§5's per-processor attribution).
	ProcRefs    []int64
	ProcMisses  []int64
	ProcCold    []int64
	ProcReplace []int64
	ProcTS      []int64 // true-sharing misses
	ProcFS      []int64 // false-sharing misses
	ProcRemote  []int64 // misses serviced by another processor's cache
}

// ProcStats is one processor's view of the simulation, for reports.
type ProcStats struct {
	Proc       int   `json:"proc"`
	Refs       int64 `json:"refs"`
	Misses     int64 `json:"misses"`
	Cold       int64 `json:"cold"`
	Replace    int64 `json:"replace"`
	TrueShare  int64 `json:"true_share"`
	FalseShare int64 `json:"false_share"`
	Remote     int64 `json:"remote"`
}

// PerProc decomposes the stats by processor.
func (s *Stats) PerProc() []ProcStats {
	out := make([]ProcStats, len(s.ProcRefs))
	for p := range out {
		out[p] = ProcStats{
			Proc:       p,
			Refs:       s.ProcRefs[p],
			Misses:     s.ProcMisses[p],
			Cold:       s.ProcCold[p],
			Replace:    s.ProcReplace[p],
			TrueShare:  s.ProcTS[p],
			FalseShare: s.ProcFS[p],
			Remote:     s.ProcRemote[p],
		}
	}
	return out
}

// Misses returns the total miss count.
func (s *Stats) Misses() int64 { return s.Cold + s.Replace + s.TrueShare + s.FalseShare }

// MissRate returns misses per reference.
func (s *Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Refs)
}

// FSRate returns the false-sharing miss rate (false-sharing misses per
// reference) — the white portion of the paper's Figure 3 bars.
func (s *Stats) FSRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.FalseShare) / float64(s.Refs)
}

// OtherRate returns the non-false-sharing miss rate (the black
// portion of the Figure 3 bars).
func (s *Stats) OtherRate() float64 { return s.MissRate() - s.FSRate() }

// String renders the stats.
func (s *Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "refs=%d (r=%d w=%d) missrate=%.4f%%\n", s.Refs, s.Reads, s.Writes, 100*s.MissRate())
	fmt.Fprintf(&sb, "  cold=%d replace=%d true=%d false=%d upgrades=%d inval=%d\n",
		s.Cold, s.Replace, s.TrueShare, s.FalseShare, s.Upgrades, s.Invalidations)
	return sb.String()
}

// line is one cache line: 24 bytes, so a 4-way set spans 96.
type line struct {
	tag   int64 // block address
	lru   int64
	valid bool
	state byte // stateShared, stateModified or stateExclusive (MESI)
}

// sectorState is one line's sector invalidation state (SectorSize
// set). It lives beside the line table, not in it, so that the lines
// every lookup scans stay small; a fill resets it.
type sectorState struct {
	// invMask marks per-sector invalidations: bit s set means sector s
	// of the block was written remotely and must be refetched before
	// use.
	invMask uint64
	// invAt is the time of the oldest outstanding sector invalidation
	// (the classification epoch for sector misses); invBy/invAddr
	// record the write responsible, for false-sharing attribution.
	// All three reset when the line refetches.
	invAt   int64
	invAddr int64
	invBy   int32
}

const (
	stateShared    byte = 0
	stateModified  byte = 1
	stateExclusive byte = 2 // MESI only: sole copy, clean
)

// blockMeta tracks why a processor lost a block, for classification.
// Stored by value inside metaTable pages. lostBy and lostAddr record
// the processor and address of the write that invalidated the copy;
// they are maintained only while an Attributor is installed (the
// classification itself never reads them) so the uninstalled hot path
// stores nothing extra.
type blockMeta struct {
	lostAt    int64
	lostAddr  int64
	lostBy    int32
	seen      bool
	resident  bool
	lostByInv bool
}

// wordStamp records the last write to one word: who wrote it and the
// simulator time of the write. The time doubles as the validity epoch:
// the zero value (time 0) means "never written", and every real write
// carries a time >= 1, so pages need no separate initialization or
// clearing when they are first touched.
type wordStamp struct {
	time   int64
	writer int32
}

// The page tables below replace the map[int64] bookkeeping of earlier
// versions. Both are two-level structures: a directory of fixed-size
// pages indexed by (key >> pageShift), with the page entry picked by
// the low bits. The directory is a plain slice for the dense low range
// every real trace lives in; page indices beyond maxDirectPages — or
// negative ones, which only corrupted replay traces produce — fall
// back to a small overflow map so a single wild address cannot force a
// giant directory allocation.
const (
	pageShift = 12
	pageSize  = 1 << pageShift // entries per page
	pageMask  = pageSize - 1

	// maxDirectPages bounds the slice directory: 64K pages × 4K
	// entries covers the first 256M blocks/words (a 4 GB address
	// space at the smallest block size) with direct indexing.
	maxDirectPages = 1 << 16
)

type metaPage [pageSize]blockMeta

// metaTable is one processor's block-number → blockMeta table.
type metaTable struct {
	pages    []*metaPage
	overflow map[int64]*metaPage
}

// at returns the metadata slot for a block, allocating its page on
// first touch. The fast path is two bounds checks and two indexed
// loads; the returned pointer stays valid forever (pages are never
// moved or freed).
func (t *metaTable) at(block int64) *blockMeta {
	pi := block >> pageShift
	if uint64(pi) < uint64(len(t.pages)) {
		if p := t.pages[pi]; p != nil {
			return &p[block&pageMask]
		}
	}
	return t.slow(block, pi)
}

func (t *metaTable) slow(block, pi int64) *blockMeta {
	if pi >= 0 && pi < maxDirectPages {
		if pi >= int64(len(t.pages)) {
			pages := make([]*metaPage, pi+1)
			copy(pages, t.pages)
			t.pages = pages
		}
		p := t.pages[pi]
		if p == nil {
			p = new(metaPage)
			t.pages[pi] = p
		}
		return &p[block&pageMask]
	}
	if t.overflow == nil {
		t.overflow = make(map[int64]*metaPage)
	}
	p := t.overflow[pi]
	if p == nil {
		p = new(metaPage)
		t.overflow[pi] = p
	}
	return &p[block&pageMask]
}

type wordPage [pageSize]wordStamp

// wordTable is the global word-number → last-writer table.
type wordTable struct {
	pages    []*wordPage
	overflow map[int64]*wordPage
}

// at returns the stamp slot for a word, allocating its page on first
// touch (used on the write path).
func (t *wordTable) at(word int64) *wordStamp {
	pi := word >> pageShift
	if uint64(pi) < uint64(len(t.pages)) {
		if p := t.pages[pi]; p != nil {
			return &p[word&pageMask]
		}
	}
	return t.slow(word, pi)
}

func (t *wordTable) slow(word, pi int64) *wordStamp {
	if pi >= 0 && pi < maxDirectPages {
		if pi >= int64(len(t.pages)) {
			pages := make([]*wordPage, pi+1)
			copy(pages, t.pages)
			t.pages = pages
		}
		p := t.pages[pi]
		if p == nil {
			p = new(wordPage)
			t.pages[pi] = p
		}
		return &p[word&pageMask]
	}
	if t.overflow == nil {
		t.overflow = make(map[int64]*wordPage)
	}
	p := t.overflow[pi]
	if p == nil {
		p = new(wordPage)
		t.overflow[pi] = p
	}
	return &p[word&pageMask]
}

// get returns the stamp for a word without allocating: words never
// written read as the zero stamp (used on the classification path, so
// classifying misses over cold regions costs no memory).
func (t *wordTable) get(word int64) wordStamp {
	pi := word >> pageShift
	if uint64(pi) < uint64(len(t.pages)) {
		if p := t.pages[pi]; p != nil {
			return p[word&pageMask]
		}
		return wordStamp{}
	}
	if t.overflow != nil {
		if p := t.overflow[pi]; p != nil {
			return p[word&pageMask]
		}
	}
	return wordStamp{}
}

// sharerTable is a directory-style presence vector: for each block, a
// bitmask of the processors whose cache currently holds a valid copy.
// It turns the coherence broadcasts — "who else holds this block?",
// "invalidate every other copy" — from O(nprocs × assoc) tag scans
// into a load plus a walk over the set bits, which on real traces is
// almost always zero or one sharer. The vector is words uint64s per
// block (words = ceil(NumProcs/64), fixed at New time): 64-processor
// machines keep the historical single-word layout and one-load fast
// path, and wider machines — the 128–1024-processor KSR2-scale
// configurations — walk the extra words with the same
// TrailingZeros64 loops. There is no scan fallback at any width.
type sharerTable struct {
	words    int64 // uint64s per block vector: ceil(NumProcs/64)
	pages    [][]uint64
	overflow map[int64][]uint64
}

// at returns the vector slot for a block, allocating its page on first
// touch (used when the vector is mutated: fills, evictions,
// invalidations). The returned slice aliases the page and stays valid
// forever; slicing an existing page allocates nothing.
func (t *sharerTable) at(block int64) []uint64 {
	pi := block >> pageShift
	if uint64(pi) < uint64(len(t.pages)) {
		if p := t.pages[pi]; p != nil {
			off := (block & pageMask) * t.words
			return p[off : off+t.words : off+t.words]
		}
	}
	return t.slow(block, pi)
}

func (t *sharerTable) slow(block, pi int64) []uint64 {
	var p []uint64
	if pi >= 0 && pi < maxDirectPages {
		if pi >= int64(len(t.pages)) {
			pages := make([][]uint64, pi+1)
			copy(pages, t.pages)
			t.pages = pages
		}
		p = t.pages[pi]
		if p == nil {
			p = make([]uint64, pageSize*t.words)
			t.pages[pi] = p
		}
	} else {
		if t.overflow == nil {
			t.overflow = make(map[int64][]uint64)
		}
		p = t.overflow[pi]
		if p == nil {
			p = make([]uint64, pageSize*t.words)
			t.overflow[pi] = p
		}
	}
	off := (block & pageMask) * t.words
	return p[off : off+t.words : off+t.words]
}

// get returns the vector without allocating: blocks never cached read
// as nil (no sharers), and ranging over a nil slice visits nothing.
func (t *sharerTable) get(block int64) []uint64 {
	pi := block >> pageShift
	if uint64(pi) < uint64(len(t.pages)) {
		if p := t.pages[pi]; p != nil {
			off := (block & pageMask) * t.words
			return p[off : off+t.words : off+t.words]
		}
		return nil
	}
	if t.overflow != nil {
		if p := t.overflow[pi]; p != nil {
			off := (block & pageMask) * t.words
			return p[off : off+t.words : off+t.words]
		}
	}
	return nil
}

// set and unset maintain one processor's presence bit (fill/evict).
func (t *sharerTable) set(block int64, proc int) {
	t.at(block)[proc>>6] |= 1 << uint(proc&63)
}

func (t *sharerTable) unset(block int64, proc int) {
	t.at(block)[proc>>6] &^= 1 << uint(proc&63)
}

// Sim is the multiprocessor cache simulator.
type Sim struct {
	cfg      Config
	nsets    int64
	blkShift uint
	setMask  int64
	assoc    int64 // cfg.Assoc, precomputed as int64 for set-base math

	caches [][]line    // [proc][set*assoc+way]
	meta   []metaTable // [proc] block classification state

	// sectors holds each line's sector state, indexed as caches; only
	// SectorSize allocates it.
	sectors [][]sectorState

	// words records the last writer and time per word.
	words wordTable

	// sharers tracks which processors hold each block (see
	// sharerTable): a multi-word presence vector sized from NumProcs
	// at New time, so every width from 1 to 1024+ processors takes
	// the same directory-walk coherence paths.
	sharers sharerTable

	// Protocol/topology/sector state (see protocol.go). sectored is
	// set when SectorSize is; secShift is the log2 of the invalidation
	// granularity (2 for word invalidation).
	// ringMasks[r] is the sharer-vector footprint of ring r, in the
	// same multi-word layout as the sharer table.
	protocol  Protocol
	sectored  bool
	secShift  uint
	twoRing   bool
	nrings    int
	ringMasks [][]uint64

	time  int64
	stats Stats

	// Sampling hook (SetSampler): sampler is invoked every
	// sampleEvery block references so long simulations can stream
	// progress.
	sampleEvery int64
	sampler     func(*Stats)

	// Attribution hook (SetAttributor). Like the sampler and the obs
	// recorder, a nil hook costs a single predictable branch on the
	// miss and invalidation paths and nothing on hits.
	attr Attributor
}

// Attributor receives miss-provenance events from the simulator. It
// is the bridge to the attribution layer (internal/sim/attr): the
// simulator reports raw processors and addresses, the attributor maps
// them back to objects and fields.
//
// OnMiss fires once per non-hit block-level access (block-spanning
// references fire once per covered block, matching how Stats count).
// For sharing misses, writer is the processor whose write caused the
// miss and writerAddr the address it wrote: for true sharing the most
// recent remote write to a word the access covers, for false sharing
// the write that invalidated this processor's copy. For cold and
// replacement misses writer is -1.
//
// OnInvalidate fires once per cache line invalidated in another
// processor's cache: writer performed the write of [addr, addr+size)
// that cost victim its copy (with SectorSize set, its copy of the
// written sectors).
//
// Callbacks run synchronously on the Access path; implementations
// must be fast and must not call back into the Sim.
type Attributor interface {
	OnMiss(proc int, addr, size int64, write bool, kind MissKind, writer int, writerAddr int64)
	OnInvalidate(writer int, addr, size int64, victim int)
}

// New builds a simulator. The configuration is validated first (see
// Config.Validate); an invalid one returns a *ConfigError instead of a
// simulator that silently misclassifies every reference.
func New(cfg Config) (*Sim, error) {
	if cfg.Assoc == 0 {
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.CacheSize / (cfg.BlockSize * int64(cfg.Assoc))
	if nsets < 1 {
		nsets = 1
	}
	// Round sets down to a power of two for masking.
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	s := &Sim{
		cfg:      cfg,
		nsets:    nsets,
		setMask:  nsets - 1,
		assoc:    int64(cfg.Assoc),
		protocol: cfg.Protocol,
	}
	s.sharers.words = int64((cfg.NumProcs + 63) / 64)
	for b := cfg.BlockSize; b > 1; b >>= 1 {
		s.blkShift++
	}
	if cfg.SectorSize > 0 {
		s.sectored = true
		for b := cfg.SectorSize; b > 1; b >>= 1 {
			s.secShift++
		}
	}
	if cfg.Topology == TopoTwoRing {
		s.twoRing = true
		s.nrings = (cfg.NumProcs + cfg.RingSize - 1) / cfg.RingSize
		s.ringMasks = make([][]uint64, s.nrings)
		flat := make([]uint64, int64(s.nrings)*s.sharers.words)
		for r := range s.ringMasks {
			s.ringMasks[r] = flat[int64(r)*s.sharers.words : int64(r+1)*s.sharers.words]
		}
		for p := 0; p < cfg.NumProcs; p++ {
			s.ringMasks[p/cfg.RingSize][p>>6] |= 1 << uint(p&63)
		}
	}
	s.caches = make([][]line, cfg.NumProcs)
	s.meta = make([]metaTable, cfg.NumProcs)
	for p := 0; p < cfg.NumProcs; p++ {
		s.caches[p] = make([]line, nsets*int64(cfg.Assoc))
	}
	if s.sectored {
		s.sectors = make([][]sectorState, cfg.NumProcs)
		for p := range s.sectors {
			s.sectors[p] = make([]sectorState, nsets*int64(cfg.Assoc))
		}
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
	return s, nil
}

// Stats returns the accumulated statistics.
func (s *Sim) Stats() *Stats { return &s.stats }

// SetSampler installs fn, invoked synchronously with the running
// stats after every n block references (n <= 0 disables sampling).
// The callback must not retain the *Stats across calls: it points at
// the simulator's live accumulator.
func (s *Sim) SetSampler(n int64, fn func(*Stats)) {
	s.sampleEvery = n
	s.sampler = fn
}

// SetAttributor installs the attribution hook (nil uninstalls it).
// Install it before the first Access: writer provenance for false
// sharing is recorded at invalidation time, so misses whose
// invalidation predates installation report writer -1.
func (s *Sim) SetAttributor(a Attributor) { s.attr = a }

// Access simulates one memory reference, splitting it at block
// boundaries if necessary (an 8-byte access with 4-byte blocks spans
// two blocks). Stats count every sub-block access individually; the
// returned classification is the most severe one across the
// sub-blocks in MissKind order (Hit < Cold < Replacement <
// TrueSharing < FalseSharing), so a caller tallying return values
// sees a sharing miss whenever any part of the reference incurred
// one.
//
// addr must be at least 0: the VM emits no address below its null
// page, and trace.Reader rejects a negative one.
func (s *Sim) Access(proc int, addr int64, size int64, write bool) MissKind {
	bs := s.cfg.BlockSize
	first := bs - addr&(bs-1) // bytes from addr to the end of its block
	if size <= first {
		return s.accessBlock(proc, addr, size, write)
	}
	worst := s.accessBlock(proc, addr, first, write)
	end := addr + size
	for next := addr + first; next < end; next += bs {
		if k := s.accessBlock(proc, next, min64(end-next, bs), write); k > worst {
			worst = k
		}
	}
	return worst
}

func (s *Sim) accessBlock(proc int, addr, size int64, write bool) MissKind {
	s.time++
	s.stats.Refs++
	s.stats.ProcRefs[proc]++
	if write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}
	if s.sampleEvery > 0 && s.stats.Refs%s.sampleEvery == 0 {
		s.sampler(&s.stats)
	}

	block := addr >> s.blkShift
	base := (block & s.setMask) * s.assoc
	ways := s.caches[proc][base : base+s.assoc]

	// Lookup.
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
		// Sector invalidation (SectorSize): a resident line
		// may hold remotely written (invalid) sectors; touching one
		// refetches the block and classifies as a sharing miss.
		if s.sectored {
			if sec := &s.sectors[proc][base+int64(hitWay)]; sec.invMask&s.sectorBits(addr, size) != 0 {
				return s.sectorMiss(proc, block, addr, size, write, ln, sec)
			}
		}
		ln.lru = s.time
		if write && ln.state == stateShared {
			s.stats.Upgrades++
			if s.protocol != WriteUpdate {
				s.invalidateOthers(proc, block, addr, size)
			}
			ln.state = stateModified
		} else if write && ln.state == stateExclusive {
			// MESI: the sole clean copy takes ownership silently — the
			// bus transaction the E state exists to avoid.
			s.stats.SilentUpgrades++
		}
		if write {
			ln.state = stateModified
			if s.protocol == WriteUpdate {
				s.updateOthers(proc, block)
			}
			if s.sectored {
				s.invalidateSectors(proc, block, addr, size)
			}
			s.recordWrite(proc, addr, size)
		}
		s.stats.Hits++
		return Hit
	}

	// Miss: classify.
	bm := s.meta[proc].at(block)
	missWriter, missWriterAddr := -1, int64(0)
	switch {
	case !bm.seen:
		kind = Cold
		s.stats.Cold++
		s.stats.ProcCold[proc]++
	case bm.lostByInv:
		if s.attr == nil {
			if s.modifiedByOtherSince(proc, addr, size, bm.lostAt) {
				kind = TrueSharing
				s.stats.TrueShare++
				s.stats.ProcTS[proc]++
			} else {
				kind = FalseSharing
				s.stats.FalseShare++
				s.stats.ProcFS[proc]++
			}
		} else if wr, wa, ok := s.lastOtherWriter(proc, addr, size, bm.lostAt); ok {
			// Same scan as modifiedByOtherSince, but it keeps the
			// writer: a covered word was remotely written, so the miss
			// is true sharing attributed to that write.
			kind = TrueSharing
			s.stats.TrueShare++
			s.stats.ProcTS[proc]++
			missWriter, missWriterAddr = wr, wa
		} else {
			kind = FalseSharing
			s.stats.FalseShare++
			s.stats.ProcFS[proc]++
			// Only other words changed: blame the invalidating write
			// recorded when the copy was lost.
			missWriter, missWriterAddr = int(bm.lostBy), bm.lostAddr
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
	if s.attr != nil {
		s.attr.OnMiss(proc, addr, size, write, kind, missWriter, missWriterAddr)
	}

	// Fill: evict the LRU way.
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
		// Record eviction of the old block.
		old := ways[victim].tag
		obm := s.meta[proc].at(old)
		if obm.resident {
			obm.resident = false
			obm.lostByInv = false
			obm.lostAt = s.time
		}
		s.sharers.unset(old, proc)
	}
	st := stateShared
	if write {
		st = stateModified
		if s.protocol == WriteUpdate {
			s.updateOthers(proc, block)
		} else {
			s.invalidateOthers(proc, block, addr, size)
		}
		if s.sectored {
			s.invalidateSectors(proc, block, addr, size)
		}
		s.recordWrite(proc, addr, size)
	} else if s.protocol == MESI {
		// MESI read fill: the sole copy fills Exclusive; otherwise the
		// other holders snoop down to Shared so their next write is a
		// bus-visible upgrade again.
		if remote {
			s.downgradeOthers(proc, block)
		} else {
			st = stateExclusive
		}
	}
	ways[victim] = line{tag: block, valid: true, state: st, lru: s.time}
	if s.sectored {
		s.sectors[proc][base+int64(victim)] = sectorState{}
	}
	s.sharers.set(block, proc)
	bm.seen = true
	bm.resident = true
	return kind
}

// invalidateOthers removes the block from every other processor's
// cache, marking the loss as invalidation for classification. addr
// and size identify the write responsible; they feed the attribution
// hook and are otherwise unused. Callers in the sector modes use
// invalidateSectors instead for data writes; this whole-line variant
// remains for fills acquiring ownership.
func (s *Sim) invalidateOthers(proc int, block, addr, size int64) {
	if s.sectored {
		// Ownership transfers still happen, but copies stay readable
		// for their valid sectors; nothing to do here (the written
		// sectors are invalidated by invalidateSectors).
		return
	}
	base := (block & s.setMask) * s.assoc
	vec := s.sharers.at(block)
	for wi := range vec {
		others := vec[wi]
		if wi == proc>>6 {
			others &^= 1 << uint(proc&63)
		}
		for m := others; m != 0; m &= m - 1 {
			p := wi<<6 + bits.TrailingZeros64(m)
			ways := s.caches[p][base : base+s.assoc]
			for w := range ways {
				if ways[w].valid && ways[w].tag == block {
					ways[w].valid = false
					s.stats.Invalidations++
					bm := s.meta[p].at(block)
					bm.resident = false
					bm.lostByInv = true
					bm.lostAt = s.time
					if s.attr != nil {
						bm.lostBy = int32(proc)
						bm.lostAddr = addr
						s.attr.OnInvalidate(proc, addr, size, p)
					}
				}
			}
		}
		vec[wi] &^= others
	}
}

// sectorBits returns the per-sector bit mask covered by [addr,
// addr+size) within its block.
//
// The w < 64 clamp below is load-bearing only because Validate caps a
// block at 64 sectors: the widest legal geometry puts the block's last
// sector exactly at bit 63, so the clamp never drops a sector of a
// valid configuration — it only keeps the shift in range if a
// corrupted size ever reaches this path. TestSectorBit63Exercised pins the 64-sector edge so a future
// relaxation of the Validate invariant cannot silently truncate here.
func (s *Sim) sectorBits(addr, size int64) uint64 {
	blockStart := addr >> s.blkShift << s.blkShift
	first := (addr - blockStart) >> s.secShift
	last := (addr + size - 1 - blockStart) >> s.secShift
	var m uint64
	for w := first; w <= last && w < 64; w++ {
		m |= 1 << uint(w)
	}
	return m
}

// sectorMiss handles a reference that hit a resident line but touched
// a remotely invalidated sector: the block refetches, counted as a
// sharing miss. The miss classifies at word granularity against the
// line's invalidation epoch: true sharing when a covered word changed
// remotely since the epoch, false sharing otherwise. With one-word
// sectors the touched word itself was remotely written, so the miss is
// always true sharing; coarser sectors reintroduce exactly the
// within-sector false sharing that word-invalidate hardware
// eliminates.
func (s *Sim) sectorMiss(proc int, block, addr, size int64, write bool, ln *line, sec *sectorState) MissKind {
	kind := TrueSharing
	if !s.modifiedByOtherSince(proc, addr, size, sec.invAt) {
		kind = FalseSharing
	}
	invBy, invAddr := int(sec.invBy), sec.invAddr
	*sec = sectorState{}
	ln.lru = s.time
	if write {
		ln.state = stateModified
		s.invalidateSectors(proc, block, addr, size)
		s.recordWrite(proc, addr, size)
	} else {
		ln.state = stateShared
	}
	if kind == TrueSharing {
		s.stats.TrueShare++
		s.stats.ProcTS[proc]++
	} else {
		s.stats.FalseShare++
		s.stats.ProcFS[proc]++
	}
	s.stats.ProcMisses[proc]++
	if s.heldElsewhere(proc, block) {
		s.stats.ProcRemote[proc]++
	}
	s.chargeMiss(proc, block)
	if s.attr != nil {
		if kind == TrueSharing {
			wr, wa, ok := s.lastOtherWriter(proc, addr, size, 1)
			if !ok {
				wr, wa = -1, 0
			}
			s.attr.OnMiss(proc, addr, size, write, TrueSharing, wr, wa)
		} else {
			// Only other sectors' words changed: blame the write that
			// opened the line's invalidation epoch.
			s.attr.OnMiss(proc, addr, size, write, FalseSharing, invBy, invAddr)
		}
	}
	return kind
}

// invalidateSectors marks the written sectors invalid in every other
// cache holding the block (SectorSize set). A
// line's first outstanding sector invalidation opens its
// classification epoch (invAt) and records the write responsible.
func (s *Sim) invalidateSectors(proc int, block, addr, size int64) {
	sbits := s.sectorBits(addr, size)
	base := (block & s.setMask) * s.assoc
	// Copies stay resident (only the written sectors are masked), so
	// the sharer vector is read, not cleared.
	vec := s.sharers.get(block)
	for wi := range vec {
		others := vec[wi]
		if wi == proc>>6 {
			others &^= 1 << uint(proc&63)
		}
		for m := others; m != 0; m &= m - 1 {
			p := wi<<6 + bits.TrailingZeros64(m)
			ways := s.caches[p][base : base+s.assoc]
			secs := s.sectors[p][base : base+s.assoc]
			for w := range ways {
				if ways[w].valid && ways[w].tag == block {
					sec := &secs[w]
					if sec.invMask&sbits != sbits {
						s.stats.Invalidations++
						if s.attr != nil {
							s.attr.OnInvalidate(proc, addr, size, p)
						}
					}
					if sec.invMask == 0 {
						sec.invAt = s.time
						sec.invBy = int32(proc)
						sec.invAddr = addr
					}
					sec.invMask |= sbits
				}
			}
		}
	}
}

// heldElsewhere reports whether another processor's cache holds the
// block (the miss would be serviced cache-to-cache on the KSR).
func (s *Sim) heldElsewhere(proc int, block int64) bool {
	vec := s.sharers.get(block)
	for wi, m := range vec {
		if wi == proc>>6 {
			m &^= 1 << uint(proc&63)
		}
		if m != 0 {
			return true
		}
	}
	return false
}

// recordWrite stamps the words covered by a write.
func (s *Sim) recordWrite(proc int, addr, size int64) {
	for w := addr / WordSize; w <= (addr+size-1)/WordSize; w++ {
		st := s.words.at(w)
		st.time = s.time
		st.writer = int32(proc)
	}
}

// modifiedByOtherSince reports whether any word covered by [addr,
// addr+size) was written by a processor other than proc at or after t.
func (s *Sim) modifiedByOtherSince(proc int, addr, size, t int64) bool {
	for w := addr / WordSize; w <= (addr+size-1)/WordSize; w++ {
		if st := s.words.get(w); st.time >= t && st.writer != int32(proc) {
			return true
		}
	}
	return false
}

// lastOtherWriter is modifiedByOtherSince with provenance: it returns
// the processor and word address of the most recent qualifying remote
// write, for the attribution hook.
func (s *Sim) lastOtherWriter(proc int, addr, size, t int64) (writer int, waddr int64, ok bool) {
	best := int64(0)
	for w := addr / WordSize; w <= (addr+size-1)/WordSize; w++ {
		if st := s.words.get(w); st.time >= t && st.writer != int32(proc) && st.time > best {
			best = st.time
			writer = int(st.writer)
			waddr = w * WordSize
			ok = true
		}
	}
	return writer, waddr, ok
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
