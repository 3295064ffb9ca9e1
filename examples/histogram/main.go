// Histogram: the Figure 2a scenario. Two parallel vectors indexed by
// process id are grouped and transposed into an array of padded
// per-process records, and the example sweeps block sizes to show how
// false sharing grows with the coherence unit — and disappears after
// restructuring.
//
//	go run ./examples/histogram
package main

import (
	"context"
	"fmt"
	"log"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/sim/cache"
)

const program = `
// Per-process histogram bins and per-process hit counters: the
// "cell"/"hits" pair from the paper's Figure 2a.
shared int bins[64];
shared int hits[64];
shared int input[4096];

void main() {
    if (pid == 0) {
        for (int i = 0; i < 4096; i = i + 1) {
            input[i] = (i * 7919 + 13) % 97;
        }
    }
    barrier;
    for (int i = pid; i < 4096; i = i + nprocs) {
        if (input[i] > 48) {
            bins[pid] = bins[pid] + input[i];
        }
        hits[pid] = hits[pid] + 1;
    }
}
`

func main() {
	const nprocs = 12
	blocks := []int64{8, 16, 32, 64, 128, 256}

	fmt.Println("block   unoptimized FS-rate   transformed FS-rate")
	for _, blk := range blocks {
		res, err := core.Restructure(program, core.Options{Nprocs: nprocs, BlockSize: blk})
		if err != nil {
			log.Fatal(err)
		}
		ccfg := cache.DefaultConfig(nprocs, blk)
		sn, err := experiments.MeasureConfig(context.Background(), res.Original, ccfg, 0)
		if err != nil {
			log.Fatal(err)
		}
		sc, err := experiments.MeasureConfig(context.Background(), res.Transformed, ccfg, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d   %18.3f%%   %18.3f%%\n",
			blk, 100*sn.FSRate(), 100*sc.FSRate())
	}

	// Show the structural rewrite once.
	res, err := core.Restructure(program, core.Options{Nprocs: nprocs, BlockSize: 128})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndecisions at 128-byte blocks:")
	fmt.Print(res.Plan.String())
}
