package ksr

import (
	"testing"
	"testing/quick"

	"falseshare/internal/sim/cache"
)

// snap builds a phase snapshot pair with one phase of work.
func snap(nprocs int, instrs, misses []int64, tx int64) (phaseSnapshot, phaseSnapshot) {
	prev := phaseSnapshot{
		instrs: make([]int64, nprocs),
		misses: make([]int64, nprocs),
	}
	cur := phaseSnapshot{instrs: instrs, misses: misses, txTot: tx}
	return prev, cur
}

func TestPhaseTimeComputeBound(t *testing.T) {
	prev, cur := snap(2, []int64{1000, 500}, []int64{0, 0}, 0)
	if cycles := phaseTime(2, prev, cur); cycles != 1000 {
		t.Errorf("compute-bound phase = %.0f cycles, want 1000 (max over procs)", cycles)
	}
}

func TestPhaseTimeMissBound(t *testing.T) {
	prev, cur := snap(2, []int64{100, 100}, []int64{10, 0}, 10)
	// At least compute plus 10 misses at base latency.
	min := float64(100 + 10*cache.DefaultLocalLatency)
	if cycles := phaseTime(2, prev, cur); cycles < min {
		t.Errorf("miss-bound phase = %.0f, want >= %.0f", cycles, min)
	}
}

func TestContentionSuperlinear(t *testing.T) {
	// Doubling transaction load more than doubles total miss cost per
	// miss once the ring saturates.
	perMiss := func(misses int64) float64 {
		prev, cur := snap(4,
			[]int64{1000, 1000, 1000, 1000},
			[]int64{misses, misses, misses, misses}, 4*misses)
		cycles := phaseTime(4, prev, cur)
		return (cycles - 1000) / float64(misses)
	}
	light := perMiss(10)
	heavy := perMiss(10000)
	if heavy <= light {
		t.Errorf("contention must raise per-miss cost: light=%.1f heavy=%.1f", light, heavy)
	}
}

func TestCrossRingRaisesLatency(t *testing.T) {
	mk := func(nprocs int) float64 {
		instrs := make([]int64, nprocs)
		misses := make([]int64, nprocs)
		for i := range instrs {
			instrs[i] = 100
			misses[i] = 10
		}
		prev, cur := snap(nprocs, instrs, misses, 0) // no contention term
		cycles := phaseTime(nprocs, prev, cur)
		return cycles
	}
	within := mk(16)
	across := mk(48)
	if across <= within {
		t.Errorf("crossing rings must cost more: 16p=%.0f 48p=%.0f", within, across)
	}
}

// Property: phase time is monotone in per-processor work and misses.
func TestPhaseTimeMonotone(t *testing.T) {
	f := func(i1, i2, m1, m2 uint16) bool {
		a := int64(i1)%10000 + 1
		b := a + int64(i2)%10000
		ma := int64(m1) % 500
		mb := ma + int64(m2)%500
		prevA, curA := snap(1, []int64{a}, []int64{ma}, ma)
		prevB, curB := snap(1, []int64{b}, []int64{mb}, mb)
		ta := phaseTime(1, prevA, curA)
		tb := phaseTime(1, prevB, curB)
		return tb >= ta-0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxSpeedupHelper(t *testing.T) {
	counts := []int{1, 2, 4}
	max, at := MaxSpeedup(counts, []float64{1, 3, 2})
	if max != 3 || at != 2 {
		t.Errorf("MaxSpeedup = %f at %d", max, at)
	}
}
