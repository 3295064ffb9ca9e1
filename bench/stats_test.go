package main

import (
	"math/rand"
	"testing"
	"time"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestSummarizeSmallSampleIsMedianOnly(t *testing.T) {
	// Fewer than ten samples: no percentile has ten samples beyond it,
	// which is what the repro workload's handful of passes gets.
	l := summarize([]time.Duration{ms(40), ms(30), ms(35), ms(50), ms(31)})
	if l.N != 5 || l.P50 != ms(35) || l.P90 != ms(50) || l.P99 != ms(50) {
		t.Fatalf("got %+v", l)
	}
	if l.TailPct != "" || l.Tail != 0 {
		t.Fatalf("tail reported for n=5: %+v", l)
	}
	if even := summarize([]time.Duration{ms(1), ms(3)}); even.P50 != ms(2) {
		t.Fatalf("even median = %v, want 2ms", even.P50)
	}
	if empty := summarize(nil); empty.N != 0 || empty.TailPct != "" {
		t.Fatalf("empty: %+v", empty)
	}
}

func TestSummarizePicksHighestSupportedPercentile(t *testing.T) {
	uniform := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = ms(i + 1)
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	for _, c := range []struct {
		n       int
		pct     string
		tail    time.Duration
		wantP50 time.Duration
		wantP90 time.Duration
	}{
		{50, "", 0, 25*time.Millisecond + 500*time.Microsecond, ms(45)},
		{110, "p90", ms(99), 55*time.Millisecond + 500*time.Microsecond, ms(99)},
		{1000, "p99", ms(990), 500*time.Millisecond + 500*time.Microsecond, ms(900)},
		{1100, "p99", ms(1089), 550*time.Millisecond + 500*time.Microsecond, ms(990)},
		{5000, "p99", ms(4950), 2500*time.Millisecond + 500*time.Microsecond, ms(4500)},
	} {
		l := summarize(uniform(c.n))
		if l.TailPct != c.pct || l.Tail != c.tail || l.P50 != c.wantP50 || l.P90 != c.wantP90 || l.N != c.n {
			t.Errorf("n=%d: got %+v, want %s=%v p50=%v p90=%v", c.n, l, c.pct, c.tail, c.wantP50, c.wantP90)
		}
	}
}

func TestSummarizeHeavyTail(t *testing.T) {
	heavy := func(fast, slow int) []time.Duration {
		var s []time.Duration
		for i := 0; i < fast; i++ {
			s = append(s, ms(1))
		}
		for i := 0; i < slow; i++ {
			s = append(s, ms(100))
		}
		return s
	}
	// Five slow samples in 1005: p99 is still a fast one.
	if l := summarize(heavy(1000, 5)); l.P50 != ms(1) || l.TailPct != "p99" || l.Tail != ms(1) || l.P99 != ms(1) {
		t.Fatalf("1000+5: %+v", l)
	}
	// Fifteen slow samples in 1015: p99 lands in the slow tail.
	if l := summarize(heavy(1000, 15)); l.P50 != ms(1) || l.TailPct != "p99" || l.Tail != ms(100) {
		t.Fatalf("1000+15: %+v", l)
	}
	// Eight slow samples in 500: p99 lands in the tail but rests on
	// fewer than ten samples, so the resolved tail is p90.
	if l := summarize(heavy(492, 8)); l.P99 != ms(100) || l.TailPct != "p90" || l.Tail != ms(1) {
		t.Fatalf("492+8: %+v", l)
	}
}
