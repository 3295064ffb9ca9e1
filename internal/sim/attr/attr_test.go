package attr

import (
	"path/filepath"
	"testing"

	"falseshare/internal/lang/ast"
	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
	"falseshare/internal/layout"
	"falseshare/internal/vm"
)

// buildLayout runs the front end on src and computes the address map
// input the attribution layer inverts. The parsed file is returned
// alongside so callers can compile it (symbol resolution is by AST
// node identity).
func buildLayout(t *testing.T, src string, dirs *layout.Directives, nprocs int) (*ast.File, *layout.Layout) {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if dirs == nil {
		dirs = layout.NewDirectives(64)
	}
	l, err := layout.Compute(info, dirs, int64(nprocs))
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	return f, l
}

const mapSrc = `
struct Rec {
    int a;
    int b;
};
shared int x;
shared int v[10];
shared struct Rec r[4];
void main() {
    x = 1;
}
`

// TestMapResolveGlobals checks the static inversion: scalars, array
// elements, and struct fields all resolve back to their names.
func TestMapResolveGlobals(t *testing.T) {
	_, l := buildLayout(t, mapSrc, nil, 2)
	m := NewMap(l)

	xv, vv, rv := l.Vars["x"], l.Vars["v"], l.Vars["r"]
	if xv == nil || vv == nil || rv == nil {
		t.Fatalf("layout missing globals: %v", l.Order)
	}

	loc := m.Resolve(xv.Base)
	if m.Object(loc.ID) != "x" || loc.Elem != 0 || loc.Offset != 0 {
		t.Errorf("x resolves to %s elem=%d off=%d", m.Object(loc.ID), loc.Elem, loc.Offset)
	}
	if k := m.ObjectKind(loc.ID); k != KindGlobal {
		t.Errorf("x kind = %s", k)
	}

	loc = m.Resolve(vv.Base + 7*vv.Strides[0])
	if m.Object(loc.ID) != "v" || loc.Elem != 7 || loc.Offset != 0 {
		t.Errorf("v[7] resolves to %s elem=%d off=%d", m.Object(loc.ID), loc.Elem, loc.Offset)
	}

	// r[3].b — the second int field of the fourth record.
	loc = m.Resolve(rv.Base + 3*rv.Strides[0] + 4)
	if m.Object(loc.ID) != "r" || loc.Elem != 3 {
		t.Errorf("r[3].b resolves to %s elem=%d", m.Object(loc.ID), loc.Elem)
	}
	if f := m.FieldName(loc.ID, loc.Offset); f != "b" {
		t.Errorf("r[3].b field = %q, want b", f)
	}
	if s := m.StructOf(loc.ID); s != "Rec" {
		t.Errorf("r struct = %q, want Rec", s)
	}

	// An address before every global is unmapped, not misattributed.
	loc = m.Resolve(xv.Base - 8)
	if k := m.ObjectKind(loc.ID); k != KindNone {
		t.Errorf("address below the globals resolved to %s (%s)", m.Object(loc.ID), k)
	}
}

// TestMapResolvePadding checks that a padded element stride separates
// payload from padding: offsets past ElemSize label as "(pad)".
func TestMapResolvePadding(t *testing.T) {
	dirs := layout.NewDirectives(64)
	dirs.PadElem["v"] = 64
	_, l := buildLayout(t, mapSrc, dirs, 2)
	m := NewMap(l)

	vv := l.Vars["v"]
	if vv.Strides[0] <= vv.ElemSize {
		t.Fatalf("padElem had no effect: stride=%d elem=%d", vv.Strides[0], vv.ElemSize)
	}
	// Payload byte of element 2.
	loc := m.Resolve(vv.Base + 2*vv.Strides[0])
	if m.Object(loc.ID) != "v" || loc.Elem != 2 || loc.Offset != 0 {
		t.Errorf("v[2] resolves to %s elem=%d off=%d", m.Object(loc.ID), loc.Elem, loc.Offset)
	}
	// A byte in element 2's padding tail.
	loc = m.Resolve(vv.Base + 2*vv.Strides[0] + vv.ElemSize)
	if loc.Elem != 2 {
		t.Errorf("pad byte attributed to element %d, want 2", loc.Elem)
	}
	if f := m.FieldName(loc.ID, loc.Offset); f != "(pad)" {
		t.Errorf("pad byte field = %q, want (pad)", f)
	}
}

const heapSrc = `
struct Rec {
    int a;
    int b;
};
shared struct Rec *owned;
void main() {
    struct Rec *g;
    int i;
    for (i = 0; i < 4; i = i + 1) {
        g = alloc(struct Rec);
        g->a = i;
    }
    owned = alloc(struct Rec);
    owned->b = 2;
}
`

// TestHeapOwners runs a program that allocates records through a local
// pointer (anonymous) and a shared pointer global (owned), and checks
// that after ResolveOwners the owned span takes the global's name
// while the anonymous spans are typed by their allocation stride.
func TestHeapOwners(t *testing.T) {
	f, l := buildLayout(t, heapSrc, nil, 1)
	m := NewMap(l)
	bc, err := vm.Compile(f, l.Info, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	mach := vm.New(bc)
	m.AttachMachine(mach)
	if err := mach.Run(nil); err != nil {
		t.Fatal(err)
	}
	m.ResolveOwners()

	spans := mach.AllocSpans()
	if len(spans) != 5 {
		t.Fatalf("expected 5 allocations, got %d", len(spans))
	}
	// The first four spans are anonymous Rec allocations.
	loc := m.Resolve(spans[0].Start)
	if got := m.Object(loc.ID); got != "heap:Rec" {
		t.Errorf("anonymous span named %q, want heap:Rec", got)
	}
	if s := m.StructOf(loc.ID); s != "Rec" {
		t.Errorf("anonymous span struct = %q, want Rec", s)
	}
	// Field resolution inside a heap record.
	loc = m.Resolve(spans[1].Start + 4)
	if f := m.FieldName(loc.ID, loc.Offset); f != "b" {
		t.Errorf("heap record field = %q, want b", f)
	}
	// The last span is reachable from the shared pointer global.
	loc = m.Resolve(spans[4].Start)
	if got := m.Object(loc.ID); got != "owned" {
		t.Errorf("owned span named %q, want owned", got)
	}
	if k := m.ObjectKind(loc.ID); k != KindHeap {
		t.Errorf("owned span kind = %s, want %s", k, KindHeap)
	}
}

// TestResolveOwnersTwice points two shared globals at one heap span:
// the span takes both names, and a second ResolveOwners, such as
// WriteFile's after a diagnostic run resolved, keeps them as they are.
func TestResolveOwnersTwice(t *testing.T) {
	const src = `
struct Rec {
    int a;
    int b;
};
shared struct Rec *p;
shared struct Rec *q;
void main() {
    p = alloc(struct Rec);
    q = p;
    p->a = 1;
}
`
	f, l := buildLayout(t, src, nil, 1)
	m := NewMap(l)
	bc, err := vm.Compile(f, l.Info, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	mach := vm.New(bc)
	m.AttachMachine(mach)
	if err := mach.Run(nil); err != nil {
		t.Fatal(err)
	}
	start := mach.AllocSpans()[0].Start
	for i := 1; i <= 2; i++ {
		m.ResolveOwners()
		if got := m.Object(m.Resolve(start).ID); got != "p,q" {
			t.Errorf("after resolve %d the span is named %q, want p,q", i, got)
		}
	}
}

// TestMapFileRoundTrip checks the trace sidecar: a map written after a
// run and reloaded without a machine resolves the same addresses to
// the same objects and fields.
func TestMapFileRoundTrip(t *testing.T) {
	f, l := buildLayout(t, heapSrc, nil, 1)
	m := NewMap(l)
	bc, err := vm.Compile(f, l.Info, l, 1)
	if err != nil {
		t.Fatal(err)
	}
	mach := vm.New(bc)
	m.AttachMachine(mach)
	if err := mach.Run(nil); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.trc.map.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadMap(path)
	if err != nil {
		t.Fatal(err)
	}

	ov := l.Vars["owned"]
	probes := []int64{ov.Base, mach.AllocSpans()[0].Start, mach.AllocSpans()[4].Start + 4}
	for _, addr := range probes {
		a, b := m.Resolve(addr), back.Resolve(addr)
		if m.Object(a.ID) != back.Object(b.ID) {
			t.Errorf("addr 0x%x: live=%s loaded=%s", addr, m.Object(a.ID), back.Object(b.ID))
		}
		if m.FieldName(a.ID, a.Offset) != back.FieldName(b.ID, b.Offset) {
			t.Errorf("addr 0x%x: field live=%q loaded=%q",
				addr, m.FieldName(a.ID, a.Offset), back.FieldName(b.ID, b.Offset))
		}
	}

	if _, err := LoadMap(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing sidecar succeeded")
	}
}
