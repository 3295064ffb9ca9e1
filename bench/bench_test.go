package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"
)

func testOptions(t *testing.T, workload string) options {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 7, seconds: 1, root: root, scratch: t.TempDir(), started: time.Now()}
}

// TestSmoke runs the compile and serve workloads for one second each
// and checks what a run reports: every end-to-end metric BENCHMARK.json
// names, printed with its unit, and no failed operation.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"compile", "serve-cold", "serve-warm"} {
		t.Run(w, func(t *testing.T) {
			res, err := measure(context.Background(), testOptions(t, w))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			printMetrics(&out, res)
			for _, m := range append(s.EndToEnd, struct{ Name, Unit string }{"error_frac", "fraction"}) {
				re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s %s (\S+) %s( |$)`, regexp.QuoteMeta(w), regexp.QuoteMeta(m.Name), regexp.QuoteMeta(m.Unit)))
				match := re.FindStringSubmatch(out.String())
				if match == nil {
					t.Fatalf("no %q line with unit %s in:\n%s", m.Name, m.Unit, out.String())
				}
				v, err := strconv.ParseFloat(match[1], 64)
				switch {
				case err != nil:
					t.Errorf("%s: %v", m.Name, err)
				case m.Name == "error_frac" && v != 0:
					t.Errorf("error_frac = %v", v)
				case m.Name != "error_frac" && v <= 0:
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if _, err := resultLine(s, res, false); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestReproGoldensLoad checks the repro workload finds its goldens.
func TestReproGoldensLoad(t *testing.T) {
	b, err := setupRepro(context.Background(), testOptions(t, "repro"))
	if err != nil {
		t.Fatal(err)
	}
	b.close()
}

// TestLayerMetricsCoverSpec checks a traced run reports every
// per-layer metric BENCHMARK.json names, in its unit.
func TestLayerMetricsCoverSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range layerMetrics(spanSet{}) {
		units[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s (%s): reported as %q", m.Name, m.Unit, u)
		}
	}
}

// TestInputsFollowSeed checks the workload inputs are a function of
// the seed: equal seeds give byte-identical request bodies and
// compile inputs, different seeds different ones.
func TestInputsFollowSeed(t *testing.T) {
	for i := int64(0); i < 64; i++ {
		a, b, c := serveRequest(5, i), serveRequest(5, i), serveRequest(6, i)
		if a.Endpoint != b.Endpoint || !bytes.Equal(a.Body, b.Body) {
			t.Fatalf("request %d differs between two draws of seed 5", i)
		}
		if bytes.Equal(a.Body, c.Body) {
			t.Fatalf("request %d is the same under seeds 5 and 6", i)
		}
		if bytes.Equal(a.Body, serveRequest(5, i+1).Body) {
			t.Fatalf("requests %d and %d of seed 5 are equal", i, i+1)
		}
	}
	if !reflect.DeepEqual(compileInputs(5), compileInputs(5)) {
		t.Fatal("compile inputs differ between two draws of seed 5")
	}
	if reflect.DeepEqual(compileInputs(5), compileInputs(6)) {
		t.Fatal("compile inputs are the same under seeds 5 and 6")
	}
}
