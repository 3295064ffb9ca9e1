package trace_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"falseshare/internal/core"
	"falseshare/internal/sim/cache"
	"falseshare/internal/sim/trace"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
)

// TestReplayFidelity checks the paper's stored-trace methodology end
// to end: a live run simulated directly and a replay of the saved
// trace must produce identical cache statistics for every block size.
func TestReplayFidelity(t *testing.T) {
	const nprocs = 4
	blocks := []int64{16, 64, 128}

	bm := workload.Get("maxflow")
	if bm == nil {
		t.Fatal("maxflow not registered")
	}
	prog, err := core.CompileCtx(context.Background(), bm.Source(1), core.Options{Nprocs: nprocs, BlockSize: blocks[0]})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, nprocs)
	if err != nil {
		t.Fatal(err)
	}

	// Live run: one simulator per block size plus the trace writer.
	liveSims := make([]*cache.Sim, len(blocks))
	sinks := make([]trace.Sink, 0, len(blocks)+1)
	for i, blk := range blocks {
		liveSims[i], err = cache.New(cache.DefaultConfig(nprocs, blk))
		if err != nil {
			t.Fatal(err)
		}
		s := liveSims[i]
		sinks = append(sinks, func(r vm.Ref) { s.Access(r.Proc, r.Addr, int64(r.Size), r.Write) })
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, nprocs)
	sinks = append(sinks, tw.Sink())
	if err := vm.New(bc).Run(trace.Tee(sinks...)); err != nil {
		t.Fatal(err)
	}
	n, err := tw.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("live run emitted no references")
	}

	// Replay through the stored-trace path.
	replaySims := make([]*cache.Sim, len(blocks))
	replaySinks := make([]trace.Sink, len(blocks))
	for i, blk := range blocks {
		var err error
		replaySims[i], err = cache.New(cache.DefaultConfig(nprocs, blk))
		if err != nil {
			t.Fatal(err)
		}
		s := replaySims[i]
		replaySinks[i] = func(r vm.Ref) { s.Access(r.Proc, r.Addr, int64(r.Size), r.Write) }
	}
	if err := trace.NewReader(bytes.NewReader(buf.Bytes())).ForEach(trace.Tee(replaySinks...)); err != nil {
		t.Fatal(err)
	}

	for i, blk := range blocks {
		live, replayed := liveSims[i].Stats(), replaySims[i].Stats()
		if live.Refs != int64(0) && live.Misses() == 0 {
			t.Errorf("block %d: suspicious live run with zero misses", blk)
		}
		if !reflect.DeepEqual(live, replayed) {
			t.Errorf("block %d: replayed stats differ from live run\nlive:   %sreplay: %s",
				blk, live, replayed)
		}
	}
}
