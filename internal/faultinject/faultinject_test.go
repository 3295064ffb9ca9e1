package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// withSet installs a parsed spec for the duration of the test.
func withSet(t *testing.T, spec string) *Set {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	Enable(s)
	t.Cleanup(func() { Enable(nil) })
	return s
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"justapoint",
		"p:wrongmode",
		"p:delay",              // delay needs a duration
		"p:delay=xyz",          // bad duration
		"p:error:after=-1",     // negative after
		"p:error:count=0",      // count must be positive
		"p:error:p=1.5",        // p is no option: victims are picked by match
		"p:error:p=0.5",        // in range or not
		"p:error:seed=7",       // seed is no option
		"p:error:transient",    // transient is no option: nothing retries
		"p:error:transient=no", // with or without a value
		"p:error:bogus=1",      // unknown option
		":error",               // empty point
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
	if s, err := Parse(" ; ;"); err != nil || len(s.Rules) != 0 {
		t.Errorf("blank spec: %v, %+v", err, s)
	}
}

func TestDisabledIsNoop(t *testing.T) {
	Enable(nil)
	if enabled.Load() != nil {
		t.Fatal("a fault set is enabled after Enable(nil)")
	}
	if err := Fire(context.Background(), "vm.run", "x"); err != nil {
		t.Fatalf("disabled Fire returned %v", err)
	}
}

func TestErrorMatchAndCount(t *testing.T) {
	withSet(t, "pool.worker=fig3/maxflow:error:count=2")
	hits := 0
	for i := 0; i < 5; i++ {
		if err := Fire(nil, "pool.worker", "fig3/maxflow/N/b16"); err != nil {
			hits++
			var fe *Error
			if !errors.As(err, &fe) || fe.Point != "pool.worker" {
				t.Fatalf("wrong error: %v", err)
			}
		}
	}
	if hits != 2 {
		t.Errorf("count=2 fired %d times", hits)
	}
	if err := Fire(nil, "pool.worker", "fig3/pverify/N/b16"); err != nil {
		t.Errorf("non-matching detail fired: %v", err)
	}
	if err := Fire(nil, "vm.run", "fig3/maxflow"); err != nil {
		t.Errorf("non-matching point fired: %v", err)
	}
}

func TestAfterSkipsLeadingHits(t *testing.T) {
	withSet(t, "vm.run:error:after=2:count=1")
	var got []int
	for i := 0; i < 5; i++ {
		if Fire(nil, "vm.run", "") != nil {
			got = append(got, i)
		}
	}
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("after=2:count=1 fired at hits %v, want [2]", got)
	}
}

func TestPanicMode(t *testing.T) {
	withSet(t, "core.restructure:panic:count=1")
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(p.(string), "core.restructure") {
			t.Fatalf("panic value %v", p)
		}
	}()
	Fire(nil, "core.restructure", "")
}

func TestDelayMode(t *testing.T) {
	withSet(t, "pool.worker:delay=30ms:count=1")
	start := time.Now()
	if err := Fire(context.Background(), "pool.worker", "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delay fired but only slept %v", d)
	}
	// Second hit: count exhausted, no delay.
	start = time.Now()
	Fire(context.Background(), "pool.worker", "k")
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("exhausted delay rule still slept %v", d)
	}
}

func TestHangRespectsContext(t *testing.T) {
	withSet(t, "vm.run:hang")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Fire(ctx, "vm.run", "")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Error("hang returned before cancellation")
	}
	// nil ctx: must not block forever — degrade to an error.
	if err := Fire(nil, "vm.run", ""); err == nil {
		t.Error("hang with nil ctx must fail, not pass")
	}
}

func TestWildcardPoint(t *testing.T) {
	withSet(t, "*:error")
	for _, pt := range []string{"pool.worker", "vm.run", "trace.partee"} {
		if Fire(nil, pt, "") == nil {
			t.Errorf("wildcard did not fire at %s", pt)
		}
	}
}

// TestSetup: the flag wins over the environment variable, the
// variable is the fallback, a bad variable value is reported under
// the variable's name, and neither set enables nothing.
func TestSetup(t *testing.T) {
	const env = "FAULTINJECT_TEST_FAULTS"
	cases := []struct {
		name, flag, env string
		want            string // point of the enabled rule, "" for none
		wantErr         string // substring of the error, "" for none
	}{
		{"flag wins", "vm.run:error", "core.compile:error", "vm.run", ""},
		{"env fallback", "", "core.compile:error", "core.compile", ""},
		{"env error names the variable", "", "garbage", "", env + ": faultinject"},
		{"flag error", "garbage", "", "", "faultinject"},
		{"unset", "", "", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(func() { Enable(nil) })
			t.Setenv(env, tc.env)
			err := Setup(tc.flag, env)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Setup = %v; want an error containing %q", err, tc.wantErr)
				}
				if tc.flag != "" && strings.Contains(err.Error(), env) {
					t.Errorf("flag error names the variable: %v", err)
				}
				if enabled.Load() != nil {
					t.Error("a rejected spec was enabled")
				}
				return
			}
			if err != nil {
				t.Fatalf("Setup = %v", err)
			}
			var got string
			if s := enabled.Load(); s != nil {
				if len(s.Rules) != 1 {
					t.Fatalf("Setup enabled %d rules, want 1", len(s.Rules))
				}
				got = s.Rules[0].Point
			}
			if got != tc.want {
				t.Errorf("enabled rule at %q, want %q", got, tc.want)
			}
		})
	}
}
