package experiments

import (
	"context"
	"fmt"
	"testing"

	"falseshare/internal/sim/attr"
	"falseshare/internal/sim/cache"
	"falseshare/internal/transform"
	"falseshare/internal/workload"
)

// TestAttributionInvariants checks, across a (procs × block ×
// workload) matrix, that the attribution layer is a pure observer:
// per-object tallies sum exactly to the simulator's per-class miss
// totals, sharing events equal the invalidation-miss class, and
// installing the hook changes no statistic.
func TestAttributionInvariants(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"maxflow", "pverify", "mp3d"} {
		b := workload.Get(name)
		if b == nil {
			t.Fatalf("workload %s not registered", name)
		}
		for _, procs := range []int{4, 12} {
			for _, blk := range []int64{16, 128} {
				t.Run(fmt.Sprintf("%s/p%d/b%d", name, procs, blk), func(t *testing.T) {
					prog, err := ProgramCtx(context.Background(), b, Baseline(b), procs, 1, blk, transform.Config{})
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					ccfg := cache.DefaultConfig(procs, blk)
					st, rep, err := MeasureConfigAttr(ctx, prog, ccfg, 0)
					if err != nil {
						t.Fatalf("measure: %v", err)
					}

					// Attribution must not perturb the simulation.
					ps, err := MeasureConfig(ctx, prog, ccfg, 0)
					if err != nil {
						t.Fatalf("plain measure: %v", err)
					}
					if st.Cold != ps.Cold || st.Replace != ps.Replace ||
						st.TrueShare != ps.TrueShare || st.FalseShare != ps.FalseShare ||
						st.Invalidations != ps.Invalidations || st.Refs != ps.Refs {
						t.Fatalf("attribution changed stats:\nwith:    %s\nwithout: %s", st, ps)
					}

					// Event totals match the simulator's accounting.
					if rep.Cold != st.Cold || rep.Replace != st.Replace ||
						rep.TrueShare != st.TrueShare || rep.FalseShare != st.FalseShare {
						t.Errorf("report totals diverge: report cold=%d replace=%d ts=%d fs=%d, stats %s",
							rep.Cold, rep.Replace, rep.TrueShare, rep.FalseShare, st)
					}
					if rep.Invalidations != st.Invalidations {
						t.Errorf("invalidation events %d != stats %d", rep.Invalidations, st.Invalidations)
					}

					// Sharing events equal the invalidation-miss class.
					if rep.TrueShare+rep.FalseShare != st.TrueShare+st.FalseShare {
						t.Errorf("sharing events %d != invalidation-miss class %d",
							rep.TrueShare+rep.FalseShare, st.TrueShare+st.FalseShare)
					}

					// Per-object tallies sum exactly to the totals.
					var cold, repl, ts, fs, inv int64
					for _, o := range rep.Objects {
						cold += o.Cold
						repl += o.Replace
						ts += o.TrueShare
						fs += o.FalseShare
						inv += o.InvCaused
					}
					if cold != st.Cold || repl != st.Replace || ts != st.TrueShare || fs != st.FalseShare {
						t.Errorf("object sums diverge: cold=%d/%d replace=%d/%d ts=%d/%d fs=%d/%d",
							cold, st.Cold, repl, st.Replace, ts, st.TrueShare, fs, st.FalseShare)
					}
					if inv != st.Invalidations {
						t.Errorf("object inval-caused sum %d != %d", inv, st.Invalidations)
					}

					// Misses must resolve to real objects: nothing lands
					// in the catch-all when the map has the machine.
					for _, o := range rep.Objects {
						if o.Kind == attr.KindNone && o.Misses() > 0 {
							t.Errorf("unmapped object got %d misses", o.Misses())
						}
					}
				})
			}
		}
	}
}

// TestDiagPaperObjects checks the acceptance-level claim: with
// attribution enabled, the top false-sharing objects of the paper's
// §4/§5 case studies are the structures the paper names.
func TestDiagPaperObjects(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		bench string
		block int64
		want  []string // any of these must rank in the top 3 FS objects
	}{
		// Maxflow (§4): excess[] and height[] are the pad & align
		// targets; push_cnt/relabel_cnt are the §5 residual anecdote.
		{"maxflow", 128, []string{"excess", "height", "push_cnt", "relabel_cnt"}},
		// Pverify (§4): done[] and steps[] are the pid-indexed
		// bookkeeping vectors of the group & transpose contribution.
		{"pverify", 128, []string{"done", "steps"}},
		// Mp3d (§4): space[] is write-shared with no locality; pvel[]
		// chunks are not block-aligned.
		{"mp3d", 128, []string{"space", "pvel"}},
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			b := workload.Get(tc.bench)
			if b == nil {
				t.Fatalf("workload %s not registered", tc.bench)
			}
			prog, err := ProgramCtx(context.Background(), b, Baseline(b), 12, 1, tc.block, transform.Config{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			_, rep, err := MeasureConfigAttr(ctx, prog, cache.DefaultConfig(12, tc.block), 0)
			if err != nil {
				t.Fatalf("diagnose: %v", err)
			}
			if rep.FalseShare == 0 {
				t.Fatalf("no false sharing attributed at block %d", tc.block)
			}
			top := rep.Objects
			if len(top) > 3 {
				top = top[:3]
			}
			for _, o := range top {
				for _, w := range tc.want {
					if o.Object == w {
						return
					}
				}
			}
			var got []string
			for _, o := range top {
				got = append(got, fmt.Sprintf("%s(fs=%d)", o.Object, o.FalseShare))
			}
			t.Errorf("top FS objects %v contain none of %v", got, tc.want)
		})
	}
}
