package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"falseshare/internal/workload"
)

// Idioms builds a random but well-formed SPMD program from the idiom
// pool the transformations target (point per-process updates, cyclic
// and block partitions, a lock-protected counter, divergent roles),
// ending with a checksum phase into the shared int result, so runs of
// two versions of it are comparable.
func Idioms(r *rand.Rand) string {
	var b strings.Builder
	n := 64 // array extent (>= any nprocs used here)

	arrays := 2 + r.Intn(3)
	for i := 0; i < arrays; i++ {
		fmt.Fprintf(&b, "shared int a%d[%d];\n", i, n)
	}
	b.WriteString("shared int result;\nshared int counter;\nlock l;\n")
	b.WriteString("void main() {\n")

	phases := 1 + r.Intn(3)
	for ph := 0; ph < phases; ph++ {
		arr := fmt.Sprintf("a%d", r.Intn(arrays))
		rounds := 5 + r.Intn(20)
		switch r.Intn(5) {
		case 0: // point per-process updates
			fmt.Fprintf(&b, `
    for (int r%d = 0; r%d < %d; r%d = r%d + 1) {
        %s[pid] = %s[pid] + r%d;
    }
`, ph, ph, rounds, ph, ph, arr, arr, ph)
		case 1: // cyclic partition
			fmt.Fprintf(&b, `
    for (int i%d = pid; i%d < %d; i%d = i%d + nprocs) {
        %s[i%d] = %s[i%d] + 1;
    }
`, ph, ph, n, ph, ph, arr, ph, arr, ph)
		case 2: // block partition
			fmt.Fprintf(&b, `
    {
        int chunk%d;
        int lo%d;
        chunk%d = %d / nprocs;
        lo%d = pid * chunk%d;
        for (int i%d = lo%d; i%d < lo%d + chunk%d; i%d = i%d + 1) {
            %s[i%d] = %s[i%d] + 2;
        }
    }
`, ph, ph, ph, n, ph, ph, ph, ph, ph, ph, ph, ph, ph, arr, ph, arr, ph)
		case 3: // lock-protected counter
			fmt.Fprintf(&b, `
    for (int r%d = 0; r%d < %d; r%d = r%d + 1) {
        acquire(l);
        counter = counter + 1;
        release(l);
    }
`, ph, ph, rounds, ph, ph)
		case 4: // divergent roles
			fmt.Fprintf(&b, `
    if (pid == 0) {
        for (int i%d = 0; i%d < %d; i%d = i%d + 1) {
            %s[i%d] = %s[i%d] + 3;
        }
    }
`, ph, ph, n, ph, ph, arr, ph, arr, ph)
		}
		b.WriteString("    barrier;\n")
	}

	// Checksum phase.
	b.WriteString("    if (pid == 0) {\n        result = counter;\n")
	for i := 0; i < arrays; i++ {
		fmt.Fprintf(&b, `
        for (int k%d = 0; k%d < %d; k%d = k%d + 1) {
            result = result + a%d[k%d] * (k%d + 1);
        }
`, i, i, n, i, i, i, i, i)
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

// Decisions triggers several independent restructuring decisions (a
// lock pad, a pad&align on a busy scalar, and a group of two
// pid-indexed vectors), so per-object degradation can knock one out
// while the rest apply.
const Decisions = `
shared int cell[16];
shared int hits[16];
shared int busy1;
shared int result;
lock l;
void main() {
    for (int i = 0; i < 1000; i = i + 1) {
        cell[pid] = cell[pid] + 1;
        hits[pid] = hits[pid] + 2;
        acquire(l);
        busy1 = busy1 + 1;
        release(l);
    }
    barrier;
    if (pid == 0) {
        result = busy1;
        for (int k = 0; k < 16; k = k + 1) {
            result = result + cell[k] * (k + 1) + hits[k] * (k + 3);
        }
    }
}
`

// FuzzSeeds is the seed corpus shared by the fuzz targets that take
// whole programs: Idioms at seeds 0-7, the registered kernels at
// scale 1, and Decisions, in that order.
func FuzzSeeds() []string {
	var out []string
	for seed := int64(0); seed < 8; seed++ {
		out = append(out, Idioms(rand.New(rand.NewSource(seed))))
	}
	for _, b := range workload.All() {
		out = append(out, b.Source(1))
	}
	return append(out, Decisions)
}
