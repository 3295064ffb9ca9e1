package falseshare

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names exported functions and methods that no
// non-test identifier references but that stay on purpose. A bare
// name matches a method of any type; "pkg.Name" and "pkg.Type.Name"
// match one declaration.
var exportAllowlist = map[string]string{
	"Unwrap":           "called by errors.Is/As, not by name",
	"MarshalJSON":      "called by encoding/json, not by name",
	"UnmarshalJSON":    "called by encoding/json, not by name",
	"gen.FuzzSeeds":    "seeds the fuzz targets of other packages' tests",
	"parser.ParseExpr": "builds expressions in other packages' tests",
	"ast.PrintStmt":    "renders statements in other packages' tests",
	"obs.Span.Counter": "reads span counters in other packages' tests",
}

// TestExportedFuncsHaveCallers keeps dead exports from coming back:
// every exported function or method declared outside bench/ and
// examples/ must be referenced from some non-test Go file (bench/ and
// examples/ count as callers), or be on the allowlist. A function
// counts as referenced by its bare name inside its own package or as
// pkg.Name where its package is imported; a method by its name alone,
// since telling receivers apart needs types. So the check misses a dead
// method that shares its name with a field or a live method.
func TestExportedFuncsHaveCallers(t *testing.T) {
	const module = "falseshare"
	fset := token.NewFileSet()
	type decl struct{ key, dir, name string }
	var decls []decl
	names := map[string]bool{}       // every referenced identifier
	funcRefs := map[[2]string]bool{} // {package dir, name} of a package-level reference
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if skipTree(path, d) {
			return filepath.SkipDir
		}
		if d.IsDir() {
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		caller := dir == "bench" || dir == "examples" || strings.HasPrefix(dir, "bench/") || strings.HasPrefix(dir, "examples/")
		imports := map[string]string{} // local name -> dir
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(ip, module+"/") {
				continue
			}
			name := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(ip, module+"/")
		}
		declared := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if caller || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				decls = append(decls, decl{key, "", fn.Name.Name})
			} else {
				decls = append(decls, decl{key, dir, fn.Name.Name})
			}
		}
		// Selectors, field and parameter names, and composite literal
		// keys name no package-level function of their own package.
		notLocal := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					notLocal[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					notLocal[id] = true
				}
			case *ast.SelectorExpr:
				notLocal[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcRefs[[2]string{imports[x.Name], n.Sel.Name}] = true
				}
			case *ast.Ident:
				if !declared[n] {
					names[n.Name] = true
					if !notLocal[n] {
						funcRefs[[2]string{dir, n.Name}] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		used := names[d.name]
		if d.dir != "" {
			used = funcRefs[[2]string{d.dir, d.name}]
		}
		if used || exportAllowlist[d.name] != "" || exportAllowlist[d.key] != "" {
			continue
		}
		dead = append(dead, d.key)
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported functions have no non-test caller; delete them, move them into the tests that use them, or allowlist them with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}
