package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"falseshare/internal/faultinject"
	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
	"falseshare/internal/vm"
	"falseshare/internal/workload"
	"falseshare/internal/workload/gen"
)

// input is one restructurer input: a source and the options it is
// restructured with.
type input struct {
	name string
	src  string
	opt  Options
}

// workloadInputs returns the repository benchmark's compile workload:
// the ten kernels' base and programmer sources at 12 processors and
// 16- and 128-byte blocks, then the first corpus programs of
// gen.Corpus(64, 1) at 8 processors and 64-byte blocks, each with its
// constants drawn from seed.
func workloadInputs(seed int64, corpus int) []input {
	var in []input
	for _, b := range workload.All() {
		srcs := [][2]string{{"base", b.Source(1)}}
		if b.PSource != nil {
			srcs = append(srcs, [2]string{"P", b.PSource(1)})
		}
		for _, s := range srcs {
			for _, blk := range []int64{16, 128} {
				in = append(in, input{
					name: fmt.Sprintf("%s/%s/p12/b%d", b.Name, s[0], blk),
					src:  s[1],
					opt:  Options{Nprocs: 12, BlockSize: blk},
				})
			}
		}
	}
	constants := rand.New(rand.NewSource(seed))
	for _, p := range gen.Corpus(64, 1)[:corpus] {
		p.Seed = constants.Int63() & 0xffff
		in = append(in, input{
			name: "gen/" + p.Name() + "/p8/b64",
			src:  gen.Generate(p),
			opt:  Options{Nprocs: 8, BlockSize: 64},
		})
	}
	return in
}

// BenchmarkRestructure restructures the compile workload's inputs,
// one input per iteration, without verification.
func BenchmarkRestructure(b *testing.B) {
	inputs := workloadInputs(1, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inputs[i%len(inputs)]
		if _, err := Restructure(in.src, in.opt); err != nil {
			b.Fatalf("%s: %v", in.name, err)
		}
	}
}

// printFresh prints a fresh parse of src.
func printFresh(t *testing.T, src string) string {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return ast.Print(f)
}

// renderLayout renders every address a layout assigns.
func renderLayout(l *layout.Layout) string {
	var sb strings.Builder
	for _, name := range l.Order {
		v := l.Vars[name]
		fmt.Fprintf(&sb, "var %s base=%d dims=%v strides=%v elem=%d total=%d\n",
			name, v.Base, v.Dims, v.Strides, v.ElemSize, v.Total)
	}
	structs := make([]string, 0, len(l.Structs))
	for name := range l.Structs {
		structs = append(structs, name)
	}
	sort.Strings(structs)
	for _, name := range structs {
		s := l.Structs[name]
		fmt.Fprintf(&sb, "struct %s size=%d align=%d offsets=%v\n", name, s.Size, s.Align, s.Offsets)
	}
	fmt.Fprintf(&sb, "heap=%d arenas=%d+%d end=%d\n", l.HeapBase, l.ArenaBase, l.ArenaSize, l.End)
	return sb.String()
}

// checkSharedTree asserts the tree-sharing contract on one result:
// the original tree prints as a fresh parse of src does, the
// transformed program shares the original's tree exactly when no
// applied decision rewrites it, and the transformed source re-parses,
// checks and lays out to the transformed layout.
func checkSharedTree(t *testing.T, name, src string, res *Result) {
	t.Helper()
	if got, want := ast.Print(res.Original.File), printFresh(t, src); got != want {
		t.Errorf("%s: original tree mutated:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
	rewrites := false
	for _, d := range res.Applied {
		rewrites = rewrites || d.Kind.RewritesTree()
	}
	if shared := res.Transformed.File == res.Original.File; shared == rewrites {
		t.Errorf("%s: transformed tree shared=%v, but applied decisions rewrite the tree=%v:\n%s", name, shared, rewrites, res.Plan)
	}
	if shared := res.Transformed.Info == res.Original.Info; shared == rewrites {
		t.Errorf("%s: transformed info shared=%v, but applied decisions rewrite the tree=%v", name, shared, rewrites)
	}

	f, err := parser.Parse(res.Transformed.Source)
	if err != nil {
		t.Fatalf("%s: transformed source does not parse: %v", name, err)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatalf("%s: transformed source does not check: %v", name, err)
	}
	lay, err := layout.Compute(info, res.Transformed.Dirs, int64(res.Options.Nprocs))
	if err != nil {
		t.Fatalf("%s: transformed source does not lay out: %v", name, err)
	}
	if got, want := renderLayout(lay), renderLayout(res.Transformed.Layout); got != want {
		t.Errorf("%s: transformed source lays out differently:\n--- from source ---\n%s--- restructured ---\n%s", name, got, want)
	}
}

// TestSharedTreeInvariant checks the tree-sharing contract over the
// compile workload's kernels and a corpus slice, with and without
// translation validation, and that both kinds of plan occur.
func TestSharedTreeInvariant(t *testing.T) {
	corpus := 16
	if testing.Short() {
		corpus = 4
	}
	seen := map[bool]int{}
	for _, verify := range []bool{false, true} {
		for _, in := range workloadInputs(1, corpus) {
			opt := in.opt
			opt.Verify = verify
			name := fmt.Sprintf("%s/verify=%v", in.name, verify)
			res, err := Restructure(in.src, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if verify && len(res.Degraded) > 0 {
				t.Errorf("%s: degraded %v", name, res.Degraded)
			}
			checkSharedTree(t, name, in.src, res)
			seen[res.Transformed.File == res.Original.File]++
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("want both shared and rewritten trees, got %v", seen)
	}
}

// TestPadFaultKeepsSharedTree: on a directive-only plan, a failing pad
// decision degrades that object alone, the retry still shares the
// original's tree, and the output matches a run that excluded the
// object from the start.
func TestPadFaultKeepsSharedTree(t *testing.T) {
	src := workload.Get("maxflow").Source(1)
	control := restructure(t, src, Options{Nprocs: 4, BlockSize: 128, Exclude: []string{"total_flow"}})
	for _, mode := range []string{"error", "panic"} {
		enableFaults(t, "transform.apply=total_flow:"+mode)
		res := restructure(t, src, Options{Nprocs: 4, BlockSize: 128})
		faultinject.Disable()

		degraded := degradedObjects(res)
		if len(degraded) != 1 || !degraded["total_flow"] {
			t.Fatalf("%s: want exactly total_flow degraded, got %v", mode, res.Degraded)
		}
		for _, d := range res.Applied {
			if d.Kind.RewritesTree() {
				t.Fatalf("%s: maxflow at 4 processes should plan pads and locks only:\n%s", mode, res.Plan)
			}
		}
		checkSharedTree(t, mode, src, res)
		if res.Transformed.Source != control.Transformed.Source {
			t.Errorf("%s: degraded output differs from exclusion control", mode)
		}
		if res.Transformed.Dirs.String() != control.Transformed.Dirs.String() {
			t.Errorf("%s: directives differ from exclusion control:\n%s\nvs\n%s", mode, res.Transformed.Dirs, control.Transformed.Dirs)
		}
	}
}

// TestSharedTreeConcurrentReaders runs the original and the
// transformed program of a directive-only plan at once: they share one
// tree, so under -race any writer in code generation or printing
// shows up here.
func TestSharedTreeConcurrentReaders(t *testing.T) {
	res := restructure(t, workload.Get("maxflow").Source(1), Options{Nprocs: 4, BlockSize: 128})
	if res.Transformed.File != res.Original.File {
		t.Fatalf("maxflow at 4 processes should share its tree:\n%s", res.Plan)
	}
	var wg sync.WaitGroup
	for _, prog := range []*Program{res.Original, res.Transformed, res.Original, res.Transformed} {
		wg.Add(1)
		go func(prog *Program) {
			defer wg.Done()
			ast.Print(prog.File)
			if _, err := layout.Compute(prog.Info, prog.Dirs, 4); err != nil {
				t.Error(err)
			}
			bc, err := vm.Compile(prog.File, prog.Info, prog.Layout, 4)
			if err == nil {
				err = vm.New(bc).Run(nil)
			}
			if err != nil {
				t.Error(err)
			}
		}(prog)
	}
	wg.Wait()
}
