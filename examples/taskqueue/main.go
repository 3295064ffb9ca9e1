// Taskqueue: per-process work lists embedded in dynamically allocated
// records — the indirection scenario (Figure 2b) — plus contended
// queue locks. The example prints the restructured source so the
// field retyping, dereference insertion and arena allocation are
// visible, then compares miss rates.
//
//	go run ./examples/taskqueue
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
struct Task {
    int ticks;
    int kind;
    struct Task *next;
};

shared struct Task *queue[64];
shared int finished;
lock qlock[64];

void main() {
    // Each process builds its own task list; allocations interleave
    // across processes, so records of different owners share blocks.
    int mine;
    mine = 512 / nprocs;
    for (int i = 0; i < mine; i = i + 1) {
        struct Task *t;
        t = alloc(struct Task);
        t->kind = i % 5;
        t->next = queue[pid];
        queue[pid] = t;
    }
    barrier;
    // Process the list repeatedly, bumping each task's tick count.
    for (int r = 0; r < 80; r = r + 1) {
        struct Task *p;
        acquire(qlock[pid]);
        p = queue[pid];
        release(qlock[pid]);
        while (p != 0) {
            p->ticks = p->ticks + p->kind;
            p = p->next;
        }
    }
    barrier;
    if (pid == 0) {
        finished = 1;
    }
}
`

func main() {
	const nprocs, block = 8, 128
	res, err := core.Restructure(program, core.Options{Nprocs: nprocs, BlockSize: block})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== decisions ===")
	fmt.Print(res.Plan.String())
	fmt.Println("\n=== restructured source (note int* ticks, *(p->ticks), allocpp) ===")
	fmt.Print(res.Transformed.Source)

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
		fmt.Printf("%s: missrate=%6.3f%%  false-sharing=%-7d invalidations=%d\n",
			v.name, 100*st.MissRate(), st.FalseShare, st.Invalidations)
	}
}
