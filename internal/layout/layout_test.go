package layout

import (
	"testing"
	"testing/quick"

	"falseshare/internal/lang/parser"
	"falseshare/internal/lang/types"
)

func compute(t *testing.T, src string, dirs *Directives, nprocs int64) (*types.Info, *Layout) {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	l, err := Compute(info, dirs, nprocs)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	return info, l
}

const layoutSrc = `
struct Node {
    int a;
    double d;
    int b;
    struct Node *next;
};
shared int x;
shared double y;
shared int arr[10];
shared double mat[4][6];
shared struct Node nodes[3];
lock l;
private int priv;
void main() { }
`

func TestBasicPacking(t *testing.T) {
	_, l := compute(t, layoutSrc, nil, 4)
	x := l.Var("x")
	y := l.Var("y")
	if x.Base != GlobalBase {
		t.Errorf("x base = %#x", x.Base)
	}
	// y is 8-aligned right after x's 4 bytes.
	if y.Base != GlobalBase+8 {
		t.Errorf("y base = %#x, want %#x", y.Base, GlobalBase+8)
	}
	// Private globals take no shared space.
	if l.Var("priv") != nil {
		t.Errorf("private global must not get a shared address")
	}
}

func TestStructLayout(t *testing.T) {
	_, l := compute(t, layoutSrc, nil, 4)
	sl := l.Struct("Node")
	// a at 0, d at 8 (aligned), b at 16, next at 24, size 32.
	want := []int64{0, 8, 16, 24}
	for i, w := range want {
		if sl.Offsets[i] != w {
			t.Errorf("offset[%d] = %d, want %d", i, sl.Offsets[i], w)
		}
	}
	if sl.Size != 32 || sl.Align != 8 {
		t.Errorf("size=%d align=%d", sl.Size, sl.Align)
	}
}

func TestArrayStrides(t *testing.T) {
	_, l := compute(t, layoutSrc, nil, 4)
	mat := l.Var("mat")
	if len(mat.Strides) != 2 || mat.Strides[1] != 8 || mat.Strides[0] != 48 {
		t.Errorf("mat strides = %v", mat.Strides)
	}
	if mat.Total != 4*48 {
		t.Errorf("mat total = %d", mat.Total)
	}
	if got := mat.Address([]int64{2, 3}); got != mat.Base+2*48+3*8 {
		t.Errorf("address = %#x", got)
	}
}

func TestPadElemDirective(t *testing.T) {
	dirs := NewDirectives(64)
	dirs.PadElem["arr"] = 64
	dirs.AlignVar["arr"] = 64
	_, l := compute(t, layoutSrc, dirs, 4)
	arr := l.Var("arr")
	if arr.Strides[0] != 64 {
		t.Errorf("padded stride = %d, want 64", arr.Strides[0])
	}
	if arr.Base%64 != 0 {
		t.Errorf("padded base %#x not aligned", arr.Base)
	}
	if arr.ElemSize != 4 {
		t.Errorf("element size must stay 4 (access width), got %d", arr.ElemSize)
	}
}

func TestPadRowDirective(t *testing.T) {
	dirs := NewDirectives(128)
	dirs.PadRow["mat"] = 128
	_, l := compute(t, layoutSrc, dirs, 4)
	mat := l.Var("mat")
	if mat.Strides[0]%128 != 0 {
		t.Errorf("row stride = %d, want multiple of 128", mat.Strides[0])
	}
	if mat.Strides[1] != 8 {
		t.Errorf("inner stride changed: %d", mat.Strides[1])
	}
}

func TestNprocsDimensions(t *testing.T) {
	src := `
shared int percpu[2 * nprocs];
void main() { }
`
	_, l := compute(t, src, nil, 12)
	v := l.Var("percpu")
	if v.Dims[0] != 24 {
		t.Errorf("dims = %v", v.Dims)
	}
}

func TestSizeOf(t *testing.T) {
	info, l := compute(t, layoutSrc, nil, 4)
	n, err := l.SizeOf(&types.Type{Kind: types.StructK, Struct: info.Structs["Node"]})
	if err != nil || n != 32 {
		t.Errorf("SizeOf(Node) = %d, %v", n, err)
	}
	if n, _ := l.SizeOf(types.IntType); n != 4 {
		t.Errorf("SizeOf(int) = %d", n)
	}
	if n, _ := l.SizeOf(types.PointerTo(types.DoubleType)); n != 8 {
		t.Errorf("SizeOf(ptr) = %d", n)
	}
}

func TestArenas(t *testing.T) {
	_, l := compute(t, layoutSrc, nil, 8)
	if l.ArenaBase <= l.HeapBase {
		t.Errorf("arenas must follow the heap")
	}
	if l.End != l.ArenaBase+8*l.ArenaSize {
		t.Errorf("End = %#x", l.End)
	}
}

func TestRecursiveStructByValueRejected(t *testing.T) {
	// Pointer recursion is fine (checked elsewhere); value recursion
	// cannot be laid out. The checker already rejects embedded struct
	// values, so construct the cycle via the layout API directly:
	// here we just confirm pointer recursion lays out.
	src := `
struct L { int v; struct L *next; };
shared struct L *head;
void main() { }
`
	_, l := compute(t, src, nil, 2)
	if l.Struct("L").Size != 16 {
		t.Errorf("L size = %d", l.Struct("L").Size)
	}
}

// Property: no two shared globals ever overlap, under arbitrary
// padding/alignment directives.
func TestNoOverlapProperty(t *testing.T) {
	f := func(padX, padArr, alignY, rowMat uint8) bool {
		pow2 := func(v uint8) int64 { return 1 << (2 + v%7) } // 4..256
		dirs := NewDirectives(128)
		dirs.PadElem["x"] = pow2(padX)
		dirs.PadElem["arr"] = pow2(padArr)
		dirs.AlignVar["y"] = pow2(alignY)
		dirs.PadRow["mat"] = pow2(rowMat)

		fAst, err := parser.Parse(layoutSrc)
		if err != nil {
			return false
		}
		info, err := types.Check(fAst)
		if err != nil {
			return false
		}
		l, err := Compute(info, dirs, 6)
		if err != nil {
			return false
		}
		type span struct{ lo, hi int64 }
		var spans []span
		for _, name := range l.Order {
			v := l.Var(name)
			spans = append(spans, span{v.Base, v.Base + v.Total})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		// Heap starts after all globals.
		for _, s := range spans {
			if s.hi > l.HeapBase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: element addresses within a padded array are disjoint and
// honor the stride.
func TestElementAddressProperty(t *testing.T) {
	f := func(pad uint8, i1, i2 uint8) bool {
		p := int64(1) << (2 + pad%7)
		dirs := NewDirectives(128)
		dirs.PadElem["arr"] = p
		fAst, _ := parser.Parse(layoutSrc)
		info, _ := types.Check(fAst)
		l, err := Compute(info, dirs, 4)
		if err != nil {
			return false
		}
		arr := l.Var("arr")
		a, b := int64(i1%10), int64(i2%10)
		addrA, addrB := arr.Address([]int64{a}), arr.Address([]int64{b})
		if a == b {
			return addrA == addrB
		}
		// Distinct elements must not overlap at their access width.
		lo1, hi1 := addrA, addrA+arr.ElemSize
		lo2, hi2 := addrB, addrB+arr.ElemSize
		return hi1 <= lo2 || hi2 <= lo1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectivesString(t *testing.T) {
	d := NewDirectives(64)
	d.PadElem["a"] = 64
	d.AlignVar["b"] = 128
	s := d.String()
	for _, want := range []string{"block=64", "padElem a 64", "align b 128"} {
		if !contains(s, want) {
			t.Errorf("directives string missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestRoundUp(t *testing.T) {
	cases := [][3]int64{{5, 4, 8}, {8, 4, 8}, {0, 16, 0}, {1, 1, 1}, {7, 0, 7}}
	for _, c := range cases {
		if got := RoundUp(c[0], c[1]); got != c[2] {
			t.Errorf("RoundUp(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}
