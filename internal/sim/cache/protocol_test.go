package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// foldUpgrades normalizes a Stats for cross-protocol comparison: MESI
// turns some bus upgrades into silent ones (that is the entire point
// of the E state), so the protocol-independent quantity is their sum.
// Everything else must match exactly — the returned copy differs from
// the input only in the folded pair.
func foldUpgrades(s *Stats) *Stats {
	c := *s
	c.Upgrades += c.SilentUpgrades
	c.SilentUpgrades = 0
	c.ProcRefs = s.ProcRefs
	c.ProcMisses = s.ProcMisses
	c.ProcCold = s.ProcCold
	c.ProcReplace = s.ProcReplace
	c.ProcTS = s.ProcTS
	c.ProcFS = s.ProcFS
	c.ProcRemote = s.ProcRemote
	return &c
}

// genNoSharingTrace builds a trace with no write sharing of any kind:
// every processor reads and writes its own disjoint region (with
// enough footprint to force replacements), and all processors read a
// common region that nobody ever writes. On such traces the three
// protocols are required to behave identically — there is never a
// remote copy to invalidate, update, or downgrade-for-classification.
func genNoSharingTrace(seed int64, nprocs, n int) []traceRef {
	rng := rand.New(rand.NewSource(seed))
	out := make([]traceRef, n)
	for i := range out {
		proc := rng.Intn(nprocs)
		var addr int64
		write := false
		if rng.Intn(3) == 0 {
			// Read-only shared region: immutable data, safe under any
			// protocol.
			addr = 0x400000 + rng.Int63n(8*1024)
		} else {
			// Private per-processor region, 64 KB apart so no block is
			// ever shared.
			addr = int64(0x10000*(proc+1)) + rng.Int63n(8*1024)
			write = rng.Intn(10) < 4
		}
		addr -= addr % WordSize
		size := int64(4)
		if rng.Intn(6) == 0 {
			size = 4 * (1 + rng.Int63n(16))
		}
		out[i] = traceRef{proc: proc, addr: addr, size: size, write: write}
	}
	return out
}

// TestProtocolsAgreeNoSharing is the differential anchor: on traces
// with no write sharing, MESI and write-update must produce Stats
// byte-identical to the PR 4 map-based write-invalidate oracle —
// every counter, every miss class, the whole per-processor
// decomposition — modulo only MESI's documented Upgrades /
// SilentUpgrades split (folded by foldUpgrades; write-update must
// match outright, updates included, since there is never a remote
// copy to refresh).
func TestProtocolsAgreeNoSharing(t *testing.T) {
	for _, nprocs := range []int{2, 4, 8} {
		for _, block := range []int64{16, 64, 256} {
			for _, proto := range Protocols() {
				cfg := DefaultConfig(nprocs, block)
				cfg.CacheSize = 4 * 1024 // force replacements
				cfg.Assoc = 2
				cfg.Protocol = proto
				sim := mustNew(t, cfg)
				ref := newRefSim(cfg)
				for i, r := range genNoSharingTrace(int64(nprocs)*77+block, nprocs, 20000) {
					ks := sim.Access(r.proc, r.addr, r.size, r.write)
					kr := ref.Access(r.proc, r.addr, r.size, r.write)
					if ks != kr {
						t.Fatalf("p%d b%d %v: ref %d (%+v): got %v oracle %v",
							nprocs, block, proto, i, r, ks, kr)
					}
				}
				got, want := foldUpgrades(sim.Stats()), foldUpgrades(&ref.stats)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("p%d b%d %v: stats diverge from oracle\ngot:    %soracle: %s",
						nprocs, block, proto, got, want)
				}
				if proto == WriteUpdate && sim.Stats().Updates != 0 {
					t.Errorf("p%d b%d: write-update counted %d updates on a no-sharing trace",
						nprocs, block, sim.Stats().Updates)
				}
			}
		}
	}
}

// TestMESIMatchesWriteInvalidateClassification pins the designed MESI
// invariant on arbitrary sharing traces: the E state changes upgrade
// traffic, never classification. For every trace, MESI's Stats equal
// write-invalidate's after folding the upgrade split, and the
// conservation law WI.Upgrades == MESI.Upgrades + MESI.SilentUpgrades
// holds exactly.
func TestMESIMatchesWriteInvalidateClassification(t *testing.T) {
	sawSilent := false
	for _, nprocs := range []int{2, 4, 8} {
		for _, block := range []int64{16, 64, 128} {
			cfg := DefaultConfig(nprocs, block)
			cfg.CacheSize = 4 * 1024
			cfg.Assoc = 2
			wi := mustNew(t, cfg)
			mcfg := cfg
			mcfg.Protocol = MESI
			mesi := mustNew(t, mcfg)
			for i, r := range genTrace(int64(nprocs)*31+block, nprocs, 25000) {
				kw := wi.Access(r.proc, r.addr, r.size, r.write)
				km := mesi.Access(r.proc, r.addr, r.size, r.write)
				if kw != km {
					t.Fatalf("p%d b%d: ref %d (%+v): wi=%v mesi=%v", nprocs, block, i, r, kw, km)
				}
			}
			ws, ms := wi.Stats(), mesi.Stats()
			if ws.Upgrades != ms.Upgrades+ms.SilentUpgrades {
				t.Errorf("p%d b%d: upgrade conservation broken: wi %d != mesi %d + silent %d",
					nprocs, block, ws.Upgrades, ms.Upgrades, ms.SilentUpgrades)
			}
			if ms.SilentUpgrades > 0 {
				sawSilent = true
			}
			g, w := foldUpgrades(ms), foldUpgrades(ws)
			g.Config, w.Config = Config{}, Config{}
			if !reflect.DeepEqual(g, w) {
				t.Errorf("p%d b%d: MESI classification diverged from write-invalidate\nmesi: %swi:   %s",
					nprocs, block, g, w)
			}
		}
	}
	if !sawSilent {
		t.Error("no configuration ever exercised a silent E->M upgrade; the MESI comparison is vacuous")
	}
}

// migratoryTrace models migratory data: a region of blocks owned by
// one processor at a time, each owner reading then updating every
// block before handing off. Between handoffs the old owner sweeps a
// large private buffer, evicting its copies — so the next owner's
// read misses find no cached copy anywhere. That is exactly the case
// MESI's E state exists for: the read fill is Exclusive and the
// following write upgrades silently, where write-invalidate pays a
// bus upgrade per block per handoff.
func migratoryTrace(nprocs, blocks int, block int64, rounds int) []traceRef {
	var out []traceRef
	region := int64(0x100000)
	evict := int64(0x800000)
	for round := 0; round < rounds; round++ {
		owner := round % nprocs
		for b := 0; b < blocks; b++ {
			addr := region + int64(b)*block
			out = append(out,
				traceRef{proc: owner, addr: addr, size: 4, write: false},
				traceRef{proc: owner, addr: addr, size: 4, write: true})
		}
		// The owner flushes its own copies before the handoff (64
		// sets * 2 ways of 4 KB / assoc-2 cache pressure).
		for i := int64(0); i < 4*1024/block*4; i++ {
			out = append(out, traceRef{proc: owner, addr: evict + int64(owner)*0x40000 + i*block, size: 4, write: false})
		}
	}
	return out
}

// TestMigratoryFavorsMESI is the directed divergence test for MESI:
// on a migratory pattern the two protocols classify identically
// (foldUpgrades equality is already pinned above), and the benefit
// shows up as strictly fewer bus upgrades — the sign asserted here —
// because most ownership acquisitions ride the E state.
func TestMigratoryFavorsMESI(t *testing.T) {
	cfg := DefaultConfig(4, 64)
	cfg.CacheSize = 4 * 1024
	cfg.Assoc = 2
	wi := mustNew(t, cfg)
	mcfg := cfg
	mcfg.Protocol = MESI
	mesi := mustNew(t, mcfg)
	for _, r := range migratoryTrace(4, 16, 64, 40) {
		wi.Access(r.proc, r.addr, r.size, r.write)
		mesi.Access(r.proc, r.addr, r.size, r.write)
	}
	ws, ms := wi.Stats(), mesi.Stats()
	if ms.Misses() != ws.Misses() {
		t.Fatalf("migratory: miss counts must match (mesi %d, wi %d)", ms.Misses(), ws.Misses())
	}
	if ms.Upgrades >= ws.Upgrades {
		t.Errorf("migratory must favor MESI: mesi bus upgrades %d >= wi %d", ms.Upgrades, ws.Upgrades)
	}
	if ms.SilentUpgrades == 0 {
		t.Error("migratory pattern never hit the E state")
	}
}

// producerConsumerTrace models a broadcast buffer: one producer
// rewrites a small region, then every consumer reads it, repeatedly.
// The producer sweeps a private buffer between rounds, evicting its
// own copies, so each round's writes are write misses that must act
// on the consumers' copies: invalidation kills them (one sharing miss
// per consumer per block per round), update refreshes them in place.
func producerConsumerTrace(nprocs, words int, rounds int, block int64) []traceRef {
	var out []traceRef
	base := int64(0x100000)
	evict := int64(0x800000)
	for round := 0; round < rounds; round++ {
		for w := 0; w < words; w++ {
			out = append(out, traceRef{proc: 0, addr: base + int64(w)*4, size: 4, write: true})
		}
		for p := 1; p < nprocs; p++ {
			for w := 0; w < words; w++ {
				out = append(out, traceRef{proc: p, addr: base + int64(w)*4, size: 4, write: false})
			}
		}
		for i := int64(0); i < 8*1024/block; i++ {
			out = append(out, traceRef{proc: 0, addr: evict + i*block, size: 4, write: false})
		}
	}
	return out
}

// TestProducerConsumerFavorsWriteUpdate is the directed divergence
// test for write-update: on a producer/consumer pattern the
// invalidation protocol makes every consumer re-miss each round,
// while update keeps all copies live and pays update transactions
// instead. The asserted sign: strictly fewer misses under
// write-update, zero sharing misses, nonzero update traffic.
func TestProducerConsumerFavorsWriteUpdate(t *testing.T) {
	cfg := DefaultConfig(4, 64)
	cfg.CacheSize = 4 * 1024
	cfg.Assoc = 2
	wi := mustNew(t, cfg)
	ucfg := cfg
	ucfg.Protocol = WriteUpdate
	wu := mustNew(t, ucfg)
	for _, r := range producerConsumerTrace(4, 32, 20, 64) {
		wi.Access(r.proc, r.addr, r.size, r.write)
		wu.Access(r.proc, r.addr, r.size, r.write)
	}
	ws, us := wi.Stats(), wu.Stats()
	if us.Misses() >= ws.Misses() {
		t.Errorf("producer/consumer must favor write-update: wu misses %d >= wi %d", us.Misses(), ws.Misses())
	}
	if us.TrueShare != 0 || us.FalseShare != 0 {
		t.Errorf("write-update took sharing misses: ts=%d fs=%d", us.TrueShare, us.FalseShare)
	}
	if us.Updates == 0 {
		t.Error("write-update counted no update transactions on a sharing trace")
	}
	if ws.TrueShare+ws.FalseShare == 0 {
		t.Error("write-invalidate took no sharing misses; the comparison is vacuous")
	}
}

// TestWriteUpdateNeverInvalidates pins the protocol's defining
// property on arbitrary traces: no invalidations, and therefore no
// invalidation-miss class at all — every miss is cold or replacement.
func TestWriteUpdateNeverInvalidates(t *testing.T) {
	for _, nprocs := range []int{2, 8} {
		cfg := DefaultConfig(nprocs, 64)
		cfg.CacheSize = 4 * 1024
		cfg.Assoc = 2
		cfg.Protocol = WriteUpdate
		sim := mustNew(t, cfg)
		for _, r := range genTrace(int64(nprocs)*13, nprocs, 20000) {
			sim.Access(r.proc, r.addr, r.size, r.write)
		}
		st := sim.Stats()
		if st.Invalidations != 0 {
			t.Errorf("p%d: write-update invalidated %d lines", nprocs, st.Invalidations)
		}
		if st.TrueShare != 0 || st.FalseShare != 0 {
			t.Errorf("p%d: write-update classified sharing misses: ts=%d fs=%d", nprocs, st.TrueShare, st.FalseShare)
		}
		if st.Misses() != st.Cold+st.Replace {
			t.Errorf("p%d: miss classes inconsistent: %s", nprocs, st)
		}
		if st.Updates == 0 {
			t.Errorf("p%d: no update traffic on a sharing trace", nprocs)
		}
	}
}

// TestParseProtocolTopology covers the CLI spellings both ways.
func TestParseProtocolTopology(t *testing.T) {
	for _, p := range Protocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, alias := range []string{"wi", "inv", "wu", "update", "mesi"} {
		if _, err := ParseProtocol(alias); err != nil {
			t.Errorf("ParseProtocol(%q): %v", alias, err)
		}
	}
	if _, err := ParseProtocol("mosi"); err == nil {
		t.Error("ParseProtocol accepted an unknown protocol")
	}
	for _, tp := range Topologies() {
		got, err := ParseTopology(tp.String())
		if err != nil || got != tp {
			t.Errorf("ParseTopology(%q) = %v, %v", tp.String(), got, err)
		}
	}
	if _, err := ParseTopology("mesh"); err == nil {
		t.Error("ParseTopology accepted an unknown topology")
	}
}

// TestValidateProtocolTopologySector is the regression suite for the
// Validate cross-field checks. Every rejection must be a typed
// *ConfigError naming the offending field.
func TestValidateProtocolTopologySector(t *testing.T) {
	base := DefaultConfig(4, 64)
	cases := []struct {
		name  string
		mut   func(*Config)
		field string // "" means the config must be valid
	}{
		{"default", func(c *Config) {}, ""},
		{"mesi", func(c *Config) { c.Protocol = MESI }, ""},
		{"write-update", func(c *Config) { c.Protocol = WriteUpdate }, ""},
		{"two-ring-defaults", func(c *Config) { c.Topology = TopoTwoRing }, ""},
		{"two-ring-explicit", func(c *Config) {
			c.Topology = TopoTwoRing
			c.RingSize = 4
			c.LocalLatency = 10
			c.RemoteLatency = 100
		}, ""},
		{"sector16", func(c *Config) { c.SectorSize = 16 }, ""},
		{"word-invalidate-matching-sector", func(c *Config) { c.SectorSize = WordSize }, ""},
		{"bad-protocol", func(c *Config) { c.Protocol = protocolCount }, "Protocol"},
		{"negative-protocol", func(c *Config) { c.Protocol = -1 }, "Protocol"},
		{"bad-topology", func(c *Config) { c.Topology = topologyCount }, "Topology"},
		{"sector-too-small", func(c *Config) { c.SectorSize = 2 }, "SectorSize"},
		{"sector-not-pow2", func(c *Config) { c.SectorSize = 24 }, "SectorSize"},
		{"sector-exceeds-block", func(c *Config) { c.SectorSize = 128 }, "SectorSize"},
		{"sector-mask-overflow", func(c *Config) {
			c.BlockSize = 1024
			c.SectorSize = 4
		}, "SectorSize"},
		{"write-update-word-invalidate", func(c *Config) {
			c.Protocol = WriteUpdate
			c.SectorSize = WordSize
		}, "Protocol"},
		{"write-update-sector", func(c *Config) {
			c.Protocol = WriteUpdate
			c.SectorSize = 16
		}, "Protocol"},
		{"ring-params-on-flat", func(c *Config) { c.RingSize = 32 }, "Topology"},
		{"negative-ring-size", func(c *Config) {
			c.Topology = TopoTwoRing
			c.RingSize = -1
		}, "RingSize"},
		{"negative-latency", func(c *Config) {
			c.Topology = TopoTwoRing
			c.LocalLatency = -175
		}, "LocalLatency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want nil", cfg, err)
				}
				return
			}
			ce, ok := err.(*ConfigError)
			if !ok {
				t.Fatalf("Validate(%+v) = %v (%T), want *ConfigError", cfg, err, err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q (%v)", ce.Field, tc.field, ce)
			}
		})
	}
}
