package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/token"
	"falseshare/internal/lang/types"
	"falseshare/internal/transform"
)

// applyRun is what one ApplySafe pass leaves behind: the printed tree,
// the outcome, and the plan's skip lines after it.
type applyRun struct {
	tree, dirs, applied, failed string
	skipped                     []string
}

// runApply applies plan to file under info, skipping the decisions the
// restructurer did not apply, and restores plan.Skipped afterwards.
func runApply(file *ast.File, info *types.Info, res *Result) applyRun {
	plan := res.Plan
	base := plan.Skipped
	plan.Skipped = slices.Clone(base)
	defer func() { plan.Skipped = base }()
	applied := map[*transform.Decision]bool{}
	for _, d := range res.Applied {
		applied[d] = true
	}
	out := transform.ApplySafe(context.Background(), file, info, plan, res.Options.BlockSize,
		int64(res.Options.Nprocs), func(d *transform.Decision) bool { return !applied[d] })
	r := applyRun{tree: ast.Print(file), dirs: out.Dirs.String(), skipped: slices.Clone(plan.Skipped)}
	for _, d := range out.Applied {
		r.applied += d.String() + "\n"
	}
	for _, f := range out.Failed {
		r.failed += f.Error() + "\n"
	}
	return r
}

// TestCloneMatchesFreshParse applies every compile-workload input's
// plan twice: to the re-keyed copy of the original's tree that the
// restructurer rewrites, and to a fresh parse and check of the source,
// the oracle. The two must rewrite alike, and both must print as the
// restructurer's transformed program.
func TestCloneMatchesFreshParse(t *testing.T) {
	corpus := 64
	if testing.Short() {
		corpus = 8
	}
	rewrote := 0
	for _, verify := range []bool{false, true} {
		for _, in := range workloadInputs(1, corpus) {
			opt := in.opt
			opt.Verify = verify
			name := fmt.Sprintf("%s/verify=%v", in.name, verify)
			res := restructure(t, in.src, opt)

			file, info := cloneForApply(res.Original)
			if got, want := ast.Print(file), ast.Print(res.Original.File); got != want {
				t.Fatalf("%s: copy prints differently from the original:\n--- copy ---\n%s--- original ---\n%s", name, got, want)
			}
			got := runApply(file, info, res)

			fresh, err := parser.Parse(in.src)
			if err != nil {
				t.Fatal(err)
			}
			freshInfo, err := types.Check(fresh)
			if err != nil {
				t.Fatal(err)
			}
			want := runApply(fresh, freshInfo, res)

			if got.tree != want.tree {
				t.Errorf("%s: copy rewrites to\n%s\nfresh parse to\n%s", name, got.tree, want.tree)
			}
			if got.tree != res.Transformed.Source {
				t.Errorf("%s: copy rewrites to\n%s\nrestructurer printed\n%s", name, got.tree, res.Transformed.Source)
			}
			if got.applied != want.applied || got.failed != want.failed || got.dirs != want.dirs {
				t.Errorf("%s: outcome over the copy differs from a fresh parse:\napplied %q vs %q\nfailed %q vs %q\ndirectives %q vs %q",
					name, got.applied, want.applied, got.failed, want.failed, got.dirs, want.dirs)
			}
			if !slices.Equal(got.skipped, want.skipped) {
				t.Errorf("%s: skipped over the copy %q, over a fresh parse %q", name, got.skipped, want.skipped)
			}
			if got.tree != ast.Print(res.Original.File) {
				rewrote++
			}
		}
	}
	if rewrote == 0 {
		t.Fatal("no input rewrote its tree")
	}
}

// TestCloneIsDeep rewrites every node of a copy in place and checks
// that the original still prints as its source does, and that the
// copy's uses are keyed by the copy's own nodes.
func TestCloneIsDeep(t *testing.T) {
	for _, in := range workloadInputs(1, 16) {
		res := restructure(t, in.src, in.opt)
		orig := res.Original
		file, info := cloneForApply(orig)

		idents := map[*ast.Ident]bool{}
		fields := map[*ast.FieldExpr]bool{}
		ast.Walk(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				idents[x] = true
			case *ast.FieldExpr:
				fields[x] = true
			}
			return true
		})
		if len(info.Uses) != len(orig.Info.Uses) || len(info.FieldUses) != len(orig.Info.FieldUses) {
			t.Errorf("%s: copy has %d uses and %d field uses, original %d and %d", in.name,
				len(info.Uses), len(info.FieldUses), len(orig.Info.Uses), len(orig.Info.FieldUses))
		}
		for id := range info.Uses {
			if !idents[id] {
				t.Fatalf("%s: use of %s is keyed by a node outside the copy", in.name, id.Name)
			}
		}
		for fe := range info.FieldUses {
			if !fields[fe] {
				t.Fatalf("%s: field use .%s is keyed by a node outside the copy", in.name, fe.Name)
			}
		}

		scramble(file)
		if got, want := ast.Print(orig.File), printFresh(t, in.src); got != want {
			t.Errorf("%s: rewriting the copy changed the original:\n--- got ---\n%s--- want ---\n%s", in.name, got, want)
		}
	}
}

// scramble rewrites every node of f in place: it renames, retypes,
// renumbers and reorders whatever each node holds.
func scramble(f *ast.File) {
	slices.Reverse(f.Structs)
	slices.Reverse(f.Globals)
	slices.Reverse(f.Funcs)
	retype := func(t *ast.TypeExpr) {
		if t != nil {
			t.Name += "_"
			t.Stars++
			t.Struct = !t.Struct
		}
	}
	flip := func(op token.Kind) token.Kind {
		if op == token.PLUS {
			return token.MINUS
		}
		return token.PLUS
	}
	ast.Walk(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.StructDecl:
			x.Name += "_"
			slices.Reverse(x.Fields)
		case *ast.FieldDecl:
			x.Name += "_"
			retype(x.Type)
			slices.Reverse(x.Dims)
		case *ast.VarDecl:
			x.Name += "_"
			x.Storage = ast.Private
			retype(x.Type)
			slices.Reverse(x.Dims)
		case *ast.ParamDecl:
			x.Name += "_"
			retype(x.Type)
		case *ast.FuncDecl:
			x.Name += "_"
			retype(x.Ret)
			slices.Reverse(x.Params)
		case *ast.BlockStmt:
			slices.Reverse(x.List)
		case *ast.AssignStmt:
			x.LHS, x.RHS = x.RHS, x.LHS
		case *ast.IfStmt:
			if x.Else != nil {
				x.Then, x.Else = x.Else, x.Then
			}
		case *ast.ForStmt:
			x.Init, x.Post = x.Post, x.Init
		case *ast.Ident:
			x.Name += "_"
		case *ast.IntLit:
			x.Value++
		case *ast.FloatLit:
			x.Value++
		case *ast.BinaryExpr:
			x.Op = flip(x.Op)
			x.X, x.Y = x.Y, x.X
		case *ast.UnaryExpr:
			x.Op = flip(x.Op)
		case *ast.IndexExpr:
			x.X, x.Index = x.Index, x.X
		case *ast.FieldExpr:
			x.Name += "_"
			x.Arrow = !x.Arrow
		case *ast.CallExpr:
			x.Name += "_"
			slices.Reverse(x.Args)
		case *ast.AllocExpr:
			retype(x.Type)
			x.PerProc = !x.PerProc
		}
		return true
	})
}
