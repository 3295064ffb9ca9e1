// Protocol and topology layer: the simulator historically spoke
// exactly one dialect — write-invalidate coherence over a flat
// machine. The matrix experiments (fsexp -matrix) sweep the
// transformation heuristics across protocol and topology variants, so
// both are now first-class configuration:
//
//   - Protocol selects the coherence protocol. WriteInvalidate is the
//     historical default and the baseline every figure in the paper
//     uses. MESI adds the Exclusive state: a read miss that finds no
//     other cached copy fills Exclusive, and the first write to an
//     Exclusive line takes ownership silently (no bus transaction) —
//     miss classification is provably identical to write-invalidate,
//     only the upgrade traffic differs (see SilentUpgrades).
//     WriteUpdate broadcasts writes to the other cached copies instead
//     of invalidating them: sharers never lose their lines, so
//     invalidation misses (true and false sharing both) disappear and
//     the cost moves into update traffic (see Stats.Updates).
//
//   - Topology selects the machine shape for miss costing. TopoFlat
//     charges nothing (the historical behavior: the KSR time model in
//     internal/sim/ksr owns latency). TopoTwoRing models the paper's
//     KSR2 directly in the simulator: processors sit on rings of
//     RingSize, every miss is serviced either by a same-ring copy
//     (LocalLatency, 175 cycles on the KSR2) or across rings
//     (RemoteLatency, 600 cycles), and blocks with no cached copy are
//     served by their home ring. Stats.CostCycles accumulates the
//     asymmetric service cost; LocalServiced/RemoteServiced decompose
//     every miss by where it was serviced.
//
// Sub-block (sector) invalidation is the third new axis: SectorSize
// generalizes the all-or-nothing line invalidation to sectors, down to
// one word (SectorSize == WordSize), the word-invalidate hardware of
// paper §6. See Config.SectorSize.
package cache

import (
	"fmt"
	"math/bits"
)

// Protocol identifies the coherence protocol the simulator runs.
type Protocol int

const (
	// WriteInvalidate is the paper's protocol and the zero-value
	// default: writes invalidate every other cached copy of the block.
	WriteInvalidate Protocol = iota
	// MESI adds the Exclusive state to write-invalidate: read misses
	// with no other sharer fill Exclusive and upgrade to Modified
	// silently on the first write.
	MESI
	// WriteUpdate broadcasts writes to the other cached copies instead
	// of invalidating them.
	WriteUpdate

	protocolCount // internal bound for validation
)

func (p Protocol) String() string {
	switch p {
	case WriteInvalidate:
		return "write-invalidate"
	case MESI:
		return "mesi"
	case WriteUpdate:
		return "write-update"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol maps a CLI spelling to a Protocol. It accepts the
// String() forms plus the short aliases "wi", "inv" and "wu".
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "write-invalidate", "wi", "inv":
		return WriteInvalidate, nil
	case "mesi":
		return MESI, nil
	case "write-update", "wu", "update":
		return WriteUpdate, nil
	}
	return 0, fmt.Errorf("cache: unknown protocol %q (want write-invalidate, mesi or write-update)", s)
}

// Protocols returns every supported protocol, in enum order — the
// matrix sweep's default protocol axis.
func Protocols() []Protocol {
	return []Protocol{WriteInvalidate, MESI, WriteUpdate}
}

// Topology identifies the machine shape used for miss costing.
type Topology int

const (
	// TopoFlat is the zero-value default: no per-miss cost model (the
	// execution-time model in internal/sim/ksr owns latency).
	TopoFlat Topology = iota
	// TopoTwoRing is the paper's KSR2 shape: processors on rings of
	// Config.RingSize, with asymmetric same-ring vs cross-ring miss
	// service latencies.
	TopoTwoRing

	topologyCount // internal bound for validation
)

func (t Topology) String() string {
	switch t {
	case TopoFlat:
		return "flat"
	case TopoTwoRing:
		return "two-ring"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// ParseTopology maps a CLI spelling to a Topology.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "flat":
		return TopoFlat, nil
	case "two-ring", "rings", "ksr":
		return TopoTwoRing, nil
	}
	return 0, fmt.Errorf("cache: unknown topology %q (want flat or two-ring)", s)
}

// Topologies returns every supported topology, in enum order.
func Topologies() []Topology {
	return []Topology{TopoFlat, TopoTwoRing}
}

// KSR2 latency defaults (paper §5): a miss serviced on the
// requester's own ring costs 175 cycles; crossing rings costs 600.
const (
	DefaultRingSize      = 32
	DefaultLocalLatency  = 175
	DefaultRemoteLatency = 600
)

// ring returns the ring a processor sits on (TopoTwoRing).
func (s *Sim) ring(proc int) int { return proc / s.cfg.RingSize }

// chargeMiss accounts one miss service in the two-level topology:
// local when a same-ring cache (or the block's home ring) services
// it, remote when the request has to cross rings. Flat topology
// charges nothing. Must be called before the requester inserts itself
// into the sharer set.
func (s *Sim) chargeMiss(proc int, block int64) {
	if !s.twoRing {
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

// serviceRemote reports whether a miss by proc on block is serviced
// across rings. A cached copy on the requester's ring always wins
// (the directory forwards to the nearest sharer — cross-ring cost is
// never charged while a same-ring sharer exists); any other cached
// copy is a cross-ring service; with no cached copy the block's home
// ring serves it.
func (s *Sim) serviceRemote(proc int, block int64) bool {
	r := s.ring(proc)
	rm := s.ringMasks[r]
	cached := false
	vec := s.sharers.get(block)
	for wi, m := range vec {
		if wi == proc>>6 {
			m &^= 1 << uint(proc&63)
		}
		if m == 0 {
			continue
		}
		if m&rm[wi] != 0 {
			return false
		}
		cached = true
	}
	if cached {
		return true
	}
	return s.homeRing(block) != r
}

// homeRing assigns every block a home ring (round-robin over the
// machine's rings), the service point for misses with no cached copy.
// Corrupted traces can produce negative block numbers; fold them in
// rather than indexing negatively.
func (s *Sim) homeRing(block int64) int {
	n := int64(s.nrings)
	h := block % n
	if h < 0 {
		h += n
	}
	return int(h)
}

// downgradeOthers demotes a remote Exclusive copy of block to the
// Shared state (MESI: a read miss snoops the E copy down to S, so the
// next write by its holder is a real, bus-visible upgrade again).
// Only the Exclusive state downgrades: the historical write-invalidate
// protocol here leaves remote Modified copies undisturbed by read
// fills (the owner keeps write-hitting without coherence traffic), and
// MESI must preserve that so its miss classification stays byte-
// identical to write-invalidate — E is the one state WI does not have,
// and it maps back to WI's Shared exactly when demoted on every remote
// fill. No statistics change: downgrades transfer no data and
// invalidate nothing.
func (s *Sim) downgradeOthers(proc int, block int64) {
	base := (block & s.setMask) * s.assoc
	vec := s.sharers.get(block)
	for wi, others := range vec {
		if wi == proc>>6 {
			others &^= 1 << uint(proc&63)
		}
		for m := others; m != 0; m &= m - 1 {
			p := wi<<6 + bits.TrailingZeros64(m)
			ways := s.caches[p][base : base+s.assoc]
			for w := range ways {
				if ways[w].valid && ways[w].tag == block && ways[w].state == stateExclusive {
					ways[w].state = stateShared
				}
			}
		}
	}
}

// updateOthers refreshes every other cached copy of block with the
// written data (WriteUpdate): the copies stay valid — no invalidation,
// no classification state change — and each refresh counts one update
// transaction. The word stamps are recorded by the caller as usual, so
// a later protocol comparison sees identical write history.
func (s *Sim) updateOthers(proc int, block int64) {
	base := (block & s.setMask) * s.assoc
	vec := s.sharers.get(block)
	for wi, others := range vec {
		if wi == proc>>6 {
			others &^= 1 << uint(proc&63)
		}
		for m := others; m != 0; m &= m - 1 {
			p := wi<<6 + bits.TrailingZeros64(m)
			ways := s.caches[p][base : base+s.assoc]
			for w := range ways {
				if ways[w].valid && ways[w].tag == block {
					s.stats.Updates++
				}
			}
		}
	}
}
