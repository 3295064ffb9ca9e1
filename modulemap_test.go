package falseshare

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// skipTree reports whether a walk of the repository skips the
// directory d: dot-directories and testdata hold no package.
func skipTree(path string, d fs.DirEntry) bool {
	return d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata")
}

// mapRow matches a row of DESIGN.md's module map and captures the
// package directory it names.
var mapRow = regexp.MustCompile("^\\| `([^`]+)` \\|")

// TestModuleMapCoversEveryPackage keeps DESIGN.md §3, the one module
// map, in step with the tree: every directory that holds non-test Go
// files has a row, and every row names such a directory.
func TestModuleMapCoversEveryPackage(t *testing.T) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if skipTree(path, d) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	var stale []string
	for _, line := range strings.Split(section, "\n") {
		m := mapRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows[m[1]] = true
		if !pkgs[m[1]] {
			stale = append(stale, m[1])
		}
	}
	var missing []string
	for p := range pkgs {
		if !rows[p] {
			missing = append(missing, p)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("DESIGN.md §3 has no row for %d packages:\n\t%s", len(missing), strings.Join(missing, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("DESIGN.md §3 has %d rows that name no package:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
}
