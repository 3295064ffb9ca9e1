// Quickstart: run the restructurer on a small explicitly parallel
// program and compare cache behaviour before and after.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"falseshare/internal/core"
	"falseshare/internal/experiments"
	"falseshare/internal/sim/cache"
)

// The classic false-sharing victim: per-process counters packed into
// the same cache blocks.
const program = `
shared int counter[64];
shared int total;
lock sum_lock;

void main() {
    int rounds;
    rounds = 24000 / nprocs;
    for (int r = 0; r < rounds; r = r + 1) {
        counter[pid] = counter[pid] + 1;
    }
    barrier;
    acquire(sum_lock);
    total = total + counter[pid];
    release(sum_lock);
}
`

func main() {
	const nprocs, block = 8, 128

	res, err := core.Restructure(program, core.Options{Nprocs: nprocs, BlockSize: block})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== transformation plan ===")
	fmt.Print(res.Plan.String())

	fmt.Println("\n=== transformed program ===")
	fmt.Print(res.Transformed.Source)

	fmt.Println("=== cache behaviour (8 procs, 128-byte blocks) ===")
	for _, v := range []struct {
		name string
		prog *core.Program
	}{
		{"unoptimized", res.Original},
		{"compiler   ", res.Transformed},
	} {
		st, err := experiments.MeasureConfig(context.Background(), v.prog, cache.DefaultConfig(nprocs, block), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: refs=%-8d missrate=%6.3f%%  false-sharing=%-7d other=%d\n",
			v.name, st.Refs, 100*st.MissRate(), st.FalseShare, st.Misses()-st.FalseShare)
	}
}
