package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"

	"falseshare/internal/core"
	"falseshare/internal/workload"
	"falseshare/internal/workload/gen"
)

// compileInput is one restructurer input: a parc source and the
// machine shape it is compiled for.
type compileInput struct {
	Key    string
	Source string
	Nprocs int
	Block  int64
	// Pinned inputs are the fixed kernels whose output compile.golden
	// records; generated inputs are checked by recompiling instead.
	Pinned bool
}

// compileInputs is the compile workload's input set: the ten kernels'
// base and programmer sources at 12 processors and 16- and 128-byte
// blocks, plus a 64-program generated corpus at 8 processors and
// 64-byte blocks. The corpus's knobs are the same for every seed (the
// serve population's seed draws them); seed draws each program's
// constants, so every run restructures programs of the same shapes.
func compileInputs(seed int64) []compileInput {
	var in []compileInput
	for _, b := range workload.All() {
		srcs := [][2]string{{"base", b.Source(1)}}
		if b.PSource != nil {
			srcs = append(srcs, [2]string{"P", b.PSource(1)})
		}
		for _, s := range srcs {
			for _, blk := range []int64{16, 128} {
				in = append(in, compileInput{
					Key:    fmt.Sprintf("%s/%s/p12/b%d", b.Name, s[0], blk),
					Source: s[1], Nprocs: 12, Block: blk, Pinned: true,
				})
			}
		}
	}
	constants := rand.New(rand.NewSource(seed))
	for _, p := range gen.Corpus(64, populationSeed) {
		p.Seed = constants.Int63() & 0xffff
		in = append(in, compileInput{Key: "gen/" + p.Name() + "/p8/b64", Source: gen.Generate(p), Nprocs: 8, Block: 64})
	}
	return in
}

// compiled is what compile.golden pins per kernel input.
type compiled struct {
	SHA256  string   `json:"sha256"`
	Applied []string `json:"applied"`
}

func restructure(ctx context.Context, in compileInput) (*core.Result, compiled, error) {
	res, err := core.RestructureCtx(ctx, in.Source, core.Options{Nprocs: in.Nprocs, BlockSize: in.Block})
	if err != nil {
		return nil, compiled{}, err
	}
	sum := sha256.Sum256([]byte(res.Transformed.Source))
	c := compiled{SHA256: hex.EncodeToString(sum[:]), Applied: []string{}}
	for _, d := range res.Applied {
		c.Applied = append(c.Applied, d.String())
	}
	return res, c, nil
}

func compileGoldenPath(root string) string {
	return filepath.Join(root, "bench", "testdata", "compile.golden")
}

// updateCompileGolden rewrites compile.golden from the current
// restructurer output.
func updateCompileGolden(ctx context.Context, root string) error {
	golden := map[string]compiled{}
	for _, in := range compileInputs(1) {
		if !in.Pinned {
			continue
		}
		_, c, err := restructure(ctx, in)
		if err != nil {
			return fmt.Errorf("%s: %w", in.Key, err)
		}
		golden[in.Key] = c
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(compileGoldenPath(root), append(b, '\n'), 0o644)
}

func loadCompileGolden(root string) (map[string]compiled, error) {
	b, err := os.ReadFile(compileGoldenPath(root))
	if err != nil {
		return nil, fmt.Errorf("%w (regenerate with -update)", err)
	}
	golden := map[string]compiled{}
	if err := json.Unmarshal(b, &golden); err != nil {
		return nil, fmt.Errorf("compile.golden: %w", err)
	}
	return golden, nil
}

// setupCompile builds the input set in a seeded shuffle, loads the
// goldens, and warms up by restructuring every input once.
func setupCompile(ctx context.Context, o options) (*bench, error) {
	inputs := compileInputs(o.seed)
	golden, err := loadCompileGolden(o.root)
	if err != nil {
		return nil, err
	}
	for _, in := range inputs {
		if _, ok := golden[in.Key]; in.Pinned && !ok {
			return nil, fmt.Errorf("compile.golden has no entry for %s (regenerate with -update)", in.Key)
		}
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	for _, in := range inputs {
		if _, _, err := restructure(ctx, in); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", in.Key, err)
		}
	}

	// The window's transformed sources of the generated inputs, for
	// the recompile check after it. One goroutine runs the loop.
	output := make([]string, len(inputs))
	b := &bench{workers: 1, close: func() {}}
	b.op = func(ctx context.Context, tr *tracer, i int64) error {
		k := int(i % int64(len(inputs)))
		in := inputs[k]
		var res *core.Result
		var c compiled
		var err error
		tr.do(i, 0, "compile.restructure", func() map[string]int64 {
			res, c, err = restructure(ctx, in)
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", in.Key, err)
		}
		if in.Pinned {
			if want := golden[in.Key]; !reflect.DeepEqual(c, want) {
				return fmt.Errorf("%s: output %s %v, golden %s %v", in.Key, c.SHA256[:12], c.Applied, want.SHA256[:12], want.Applied)
			}
		} else if output[k] == "" {
			output[k] = res.Transformed.Source
		}
		return nil
	}
	b.check = func(ctx context.Context) (checked, failed int64) {
		for k, src := range output {
			if inputs[k].Pinned || src == "" {
				continue
			}
			checked++
			if _, err := core.CompileCtx(ctx, src, core.Options{Nprocs: inputs[k].Nprocs, BlockSize: inputs[k].Block}); err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "bench: %s: transformed source does not recompile: %v\n", inputs[k].Key, err)
			}
		}
		return checked, failed
	}
	b.layers = func(ctx context.Context, tr *tracer) ([]metric, int64, int64, error) {
		progs := make([]program, 0, len(inputs))
		for _, in := range inputs {
			progs = append(progs, program{Name: in.Key, Source: in.Source, Nprocs: in.Nprocs, Block: in.Block, Transformed: true})
		}
		return probeLayers(ctx, tr, o, progs, true)
	}
	return b, nil
}
