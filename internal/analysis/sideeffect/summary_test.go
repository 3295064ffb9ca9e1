package sideeffect

import (
	"strings"
	"testing"
)

func TestFuncFrequencies(t *testing.T) {
	src := `
shared int x;
void leaf() { x = x + 1; }
void hot() { leaf(); }
void cold() { leaf(); }
void main() {
    for (int i = 0; i < 100; i = i + 1) {
        hot();
    }
    if (x > 1000000) {
        cold();
    }
}
`
	_, sum := pipeline(t, src, 4)
	if sum.FuncFreq["main"] != 1 {
		t.Errorf("main freq = %f", sum.FuncFreq["main"])
	}
	if sum.FuncFreq["hot"] < 50 {
		t.Errorf("hot freq = %f, want ~100", sum.FuncFreq["hot"])
	}
	if sum.FuncFreq["cold"] > 1 {
		t.Errorf("cold freq = %f, want ~0.5", sum.FuncFreq["cold"])
	}
	// leaf inherits from both callers.
	if sum.FuncFreq["leaf"] <= sum.FuncFreq["hot"]*0.9 {
		t.Errorf("leaf freq = %f, want >= hot", sum.FuncFreq["leaf"])
	}
}

func TestUnreachableFunctionIgnored(t *testing.T) {
	src := `
shared int x;
shared int y;
void dead() { y = y + 1; }
void main() { x = 1; }
`
	_, sum := pipeline(t, src, 4)
	if sum.Objects["global:y"] != nil {
		t.Errorf("accesses in unreachable code must not be summarized")
	}
}

func TestRecursionConverges(t *testing.T) {
	src := `
shared int x;
int f(int n) {
    x = x + 1;
    if (n == 0) { return 0; }
    return f(n - 1);
}
void main() { f(10); }
`
	_, sum := pipeline(t, src, 4)
	xo := sum.Objects["global:x"]
	if xo == nil {
		t.Fatalf("missing summary")
	}
	// The frequency estimate must be finite (capped fixed point).
	if xo.WriteW <= 0 || xo.WriteW > 1e13 {
		t.Errorf("recursive weight = %f", xo.WriteW)
	}
}

func TestSummaryString(t *testing.T) {
	src := `
shared int a[16];
void main() {
    for (int r = 0; r < 10; r = r + 1) {
        a[pid] = a[pid] + 1;
    }
}
`
	_, sum := pipeline(t, src, 4)
	out := sum.String()
	for _, want := range []string{"global:a", "1*pid", "W", "R"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary string missing %q:\n%s", want, out)
		}
	}
}

func TestSortedObjectsDeterministic(t *testing.T) {
	src := `
shared int a;
shared int b;
shared int c;
void main() {
    a = 1;
    b = 1;
    c = 1;
}
`
	_, sum1 := pipeline(t, src, 4)
	_, sum2 := pipeline(t, src, 4)
	n1 := []string{}
	for _, o := range sum1.SortedObjects() {
		n1 = append(n1, o.Obj.Key())
	}
	n2 := []string{}
	for _, o := range sum2.SortedObjects() {
		n2 = append(n2, o.Obj.Key())
	}
	if len(n1) != len(n2) {
		t.Fatalf("lengths differ")
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Errorf("order differs at %d: %s vs %s", i, n1[i], n2[i])
		}
	}
}

func TestLockAccessesCounted(t *testing.T) {
	src := `
shared int x;
lock l;
void main() {
    acquire(l);
    x = x + 1;
    release(l);
}
`
	_, sum := pipeline(t, src, 4)
	lo := sum.Objects["global:l"]
	if lo == nil {
		t.Fatalf("no lock summary")
	}
	// acquire = read + write, release = write.
	if lo.ReadW != 1 || lo.WriteW != 2 {
		t.Errorf("lock weights r=%f w=%f, want 1/2", lo.ReadW, lo.WriteW)
	}
}
