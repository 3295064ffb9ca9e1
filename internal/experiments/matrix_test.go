package experiments

import (
	"reflect"
	"strings"
	"testing"

	"falseshare/internal/sim/cache"
)

func smallMatrixOptions() MatrixOptions {
	return MatrixOptions{Workloads: 4, Seed: 3, Procs: 4, Block: 64, ScaleMin: true}
}

// TestMatrixInvariants runs a small full grid and checks the cross-cell
// identities the protocol and topology layers promise: MESI classifies
// byte-identically to write-invalidate, write-update never takes
// sharing misses, and the two-ring topology is a pure cost observer
// whose service counts and cycle cost satisfy their exact identities.
func TestMatrixInvariants(t *testing.T) {
	cfg := Config{ConfigSpec: ConfigSpec{Scale: 1, Verify: true}, Workers: 4, Events: &CellEvents{}}
	opt := smallMatrixOptions()
	cells, err := Matrix(cfg, opt)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	want := opt.Workloads * len(cache.Protocols()) * len(cache.Topologies())
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	if n := DegradedObjects(cfg.Events.Degraded); n != 0 {
		t.Errorf("safe mode degraded %d objects on generated programs: %+v", n, cfg.Events.Degraded)
	}

	type wk struct{ workload, topo string }
	byProto := map[wk]map[string]MatrixCell{}
	for _, c := range cells {
		if c.N.Refs == 0 {
			t.Errorf("%s: empty N run", c.Key)
		}
		for _, ver := range []MatrixStats{c.N, c.C} {
			switch c.Protocol {
			case "write-update":
				if ver.FalseShare != 0 || ver.TrueShare != 0 || ver.Invalidations != 0 {
					t.Errorf("%s: write-update took sharing misses: fs=%d ts=%d inv=%d",
						c.Key, ver.FalseShare, ver.TrueShare, ver.Invalidations)
				}
			default:
				if ver.Updates != 0 {
					t.Errorf("%s: %s counted updates", c.Key, c.Protocol)
				}
			}
			switch c.Topology {
			case "two-ring":
				if ver.LocalServiced+ver.RemoteServiced != ver.Misses {
					t.Errorf("%s: local %d + remote %d != misses %d",
						c.Key, ver.LocalServiced, ver.RemoteServiced, ver.Misses)
				}
				wantCost := ver.LocalServiced*cache.DefaultLocalLatency + ver.RemoteServiced*cache.DefaultRemoteLatency
				if ver.CostCycles != wantCost {
					t.Errorf("%s: cost %d != %d", c.Key, ver.CostCycles, wantCost)
				}
			default:
				if ver.LocalServiced != 0 || ver.RemoteServiced != 0 || ver.CostCycles != 0 {
					t.Errorf("%s: flat topology counted service costs", c.Key)
				}
			}
		}
		k := wk{c.Workload, c.Topology}
		if byProto[k] == nil {
			byProto[k] = map[string]MatrixCell{}
		}
		byProto[k][c.Protocol] = c
	}

	// MESI vs write-invalidate: identical classification per
	// (workload, topology); upgrades obey the conservation law.
	for k, m := range byProto {
		wi, okW := m["write-invalidate"]
		ms, okM := m["mesi"]
		if !okW || !okM {
			continue
		}
		for _, pair := range [][2]MatrixStats{{wi.N, ms.N}, {wi.C, ms.C}} {
			w, e := pair[0], pair[1]
			if w.Misses != e.Misses || w.FalseShare != e.FalseShare || w.TrueShare != e.TrueShare {
				t.Errorf("%v: MESI classification diverges from WI:\nwi:   %+v\nmesi: %+v", k, w, e)
			}
			if w.Upgrades != e.Upgrades+e.SilentUpgrades {
				t.Errorf("%v: upgrade conservation broken: wi %d != mesi %d + silent %d",
					k, w.Upgrades, e.Upgrades, e.SilentUpgrades)
			}
		}
	}

	// Render smoke: every grid row present, header greppable.
	out := RenderMatrix(cells)
	if !strings.Contains(out, "Protocol/topology matrix") {
		t.Errorf("render lost its header:\n%s", out)
	}
	for _, proto := range cache.Protocols() {
		if !strings.Contains(out, proto.String()) {
			t.Errorf("render missing protocol %s:\n%s", proto, out)
		}
	}
	if !strings.Contains(out, "By pattern") {
		t.Errorf("render missing pattern summary:\n%s", out)
	}
	csv := csvMatrix(cells)
	if got := strings.Count(csv, "\n"); got != len(cells)+1 {
		t.Errorf("CSV has %d lines, want %d", got, len(cells)+1)
	}
}

// TestMatrixDeterministicAcrossWorkers pins the resume/manifest
// contract: the cell slice is byte-identical at any worker count.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	opt := MatrixOptions{Workloads: 2, Seed: 9, Procs: 4, Block: 64, ScaleMin: true}
	a, err := Matrix(Config{ConfigSpec: ConfigSpec{Scale: 1}, Workers: 1}, opt)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	b, err := Matrix(Config{ConfigSpec: ConfigSpec{Scale: 1}, Workers: 8}, opt)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cells differ across worker counts:\n%+v\n----\n%+v", a, b)
	}
}

// TestMatrixAttributionInvariants extends the attribution invariants
// to the protocol/topology grid: with -diag, every recorded N report's
// class totals equal the cell's simulator stats, and the per-object
// sums close — under every protocol and topology, not just the
// default configuration the figure drivers use.
func TestMatrixAttributionInvariants(t *testing.T) {
	cfg := Config{ConfigSpec: ConfigSpec{Scale: 1, Diag: true}, Workers: 1, Events: &CellEvents{}}
	opt := MatrixOptions{Workloads: 2, Seed: 5, Procs: 4, Block: 64, ScaleMin: true}
	cells, err := Matrix(cfg, opt)
	if err != nil {
		t.Fatalf("Matrix: %v", err)
	}
	byKey := map[string]MatrixCell{}
	for _, c := range cells {
		byKey[c.Key] = c
	}
	recorded := cfg.Events.Diag
	if len(recorded) != len(cells) {
		t.Fatalf("recorded %d diag cells, want %d", len(recorded), len(cells))
	}
	for _, d := range recorded {
		c, ok := byKey[d.Key]
		if !ok {
			t.Errorf("diag cell %s has no matrix cell", d.Key)
			continue
		}
		rep := d.Report
		if rep == nil {
			t.Errorf("%s: no report", d.Key)
			continue
		}
		if rep.FalseShare != c.N.FalseShare || rep.TrueShare != c.N.TrueShare {
			t.Errorf("%s: report fs=%d ts=%d, stats fs=%d ts=%d",
				d.Key, rep.FalseShare, rep.TrueShare, c.N.FalseShare, c.N.TrueShare)
		}
		// Sharing events equal the invalidation-miss class — under
		// MESI and sectored modes too, not just plain WI.
		if rep.TrueShare+rep.FalseShare != c.N.TrueShare+c.N.FalseShare {
			t.Errorf("%s: sharing events %d != invalidation class %d",
				d.Key, rep.TrueShare+rep.FalseShare, c.N.TrueShare+c.N.FalseShare)
		}
		var ts, fs int64
		for _, o := range rep.Objects {
			ts += o.TrueShare
			fs += o.FalseShare
		}
		if ts != c.N.TrueShare || fs != c.N.FalseShare {
			t.Errorf("%s: object sums ts=%d/%d fs=%d/%d", d.Key, ts, c.N.TrueShare, fs, c.N.FalseShare)
		}
	}
}
