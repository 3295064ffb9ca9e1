package main

import (
	"testing"
	"time"
)

// TestSpeedProbe checks the probe yields a positive mean for every
// phase, even one shorter than its sampling interval, and that timings
// scale by refSpeed over the measured reference.
func TestSpeedProbe(t *testing.T) {
	p := startSpeedProbe()
	defer p.stop()
	for phase := 0; phase < 2; phase++ {
		if ref := p.phase(); ref <= 0 {
			t.Fatalf("phase %d: mean reference run %v", phase, ref)
		}
	}
	if got := atRefSpeed(3*time.Second, 2*refSpeed); got != 1500*time.Millisecond {
		t.Errorf("3 s measured while the reference ran at half speed: %v at the reference speed, want 1.5 s", got)
	}
}
