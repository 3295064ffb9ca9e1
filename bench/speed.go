package main

import (
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared, and how fast their
// cores run drifts by tens of percent over seconds and minutes, the same
// for every program on them. A speed probe measures that drift while a
// workload runs, by timing a fixed piece of work (the speed reference)
// ten times a second on a goroutine of its own; the end-to-end timings
// are reported at a fixed reference speed, so that most of the drift
// cancels.

const (
	// probeEvery is how often the probe samples. A sample is the
	// fastest of probeReps reference runs, so a run the scheduler
	// interrupts does not count as a slow machine; sampling takes about
	// 1.5% of one core.
	probeEvery = 100 * time.Millisecond
	probeReps  = 3
	// probeNear is how far around an operation the samples that scale
	// it reach, so that even a short operation is scaled by a few.
	probeNear = 150 * time.Millisecond
	// refSpeed is a nominal reference run time, about what one takes
	// on the 2-vCPU machine the bounds were calibrated on
	// (bench/README.md). A timing t measured while the reference took r
	// is reported as t·refSpeed/r.
	refSpeed = 500 * time.Microsecond
)

// speedRef is the fixed work, a small mix of what the workloads do:
// sorting keys (branchy compares, like the compiler's passes), scattered
// increments over a 256 KiB table (like the simulator's state), and
// building short strings into a map (allocation, hashing and garbage,
// like the front end and the daemon's JSON).
type speedRef struct {
	keys  []uint32
	table []uint32
	names map[string]int
	sink  int
}

func newSpeedRef() *speedRef {
	return &speedRef{keys: make([]uint32, 4096), table: make([]uint32, 1<<16), names: map[string]int{}}
}

// run does the work once and returns how long it took.
func (r *speedRef) run() time.Duration {
	start := time.Now()
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range r.keys {
		r.keys[i] = next()
	}
	slices.Sort(r.keys)
	mask := uint32(len(r.table) - 1)
	for i := 0; i < 1<<16; i++ {
		r.table[next()&mask] += uint32(i)
	}
	clear(r.names)
	for i := 0; i < 1000; i++ {
		r.names["k"+strconv.Itoa(i*7919%5003)] += i
	}
	r.sink += int(r.keys[len(r.keys)/2]+r.table[x&mask]) + len(r.names)
	return time.Since(start)
}

// speedSample is one probe sample: when it was taken and how long a
// reference run took.
type speedSample struct {
	at  time.Time
	ref time.Duration
}

// speedProbe samples the reference from its start until stopped.
type speedProbe struct {
	mu      sync.Mutex
	added   *sync.Cond
	samples []speedSample // in time order
	from    int           // first sample of the current phase
	quit    chan struct{}
	done    chan struct{}
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{quit: make(chan struct{}), done: make(chan struct{})}
	p.added = sync.NewCond(&p.mu)
	go func() {
		defer close(p.done)
		ref := newSpeedRef()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			at := time.Now()
			best := ref.run()
			for k := 1; k < probeReps; k++ {
				best = min(best, ref.run())
			}
			p.mu.Lock()
			p.samples = append(p.samples, speedSample{at, best})
			p.added.Broadcast()
			p.mu.Unlock()
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// phase ends the current phase and returns its mean reference time,
// waiting for a first sample if the phase has none yet. Call it only
// before stop.
func (p *speedProbe) phase() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.samples) == p.from {
		p.added.Wait()
	}
	mean := meanRef(p.samples[p.from:])
	p.from = len(p.samples)
	return mean
}

// scaled returns d, an operation's latency measured from start, at the
// reference speed, scaled by the samples taken within probeNear of the
// operation (the nearest one if there are none).
func (p *speedProbe) scaled(start time.Time, d time.Duration) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(start.Add(-probeNear)) })
	hi := sort.Search(len(p.samples), func(i int) bool { return p.samples[i].at.After(start.Add(d + probeNear)) })
	if lo >= hi { // none near: the next sample, or the last
		lo = min(lo, len(p.samples)-1)
		hi = lo + 1
	}
	return atRefSpeed(d, meanRef(p.samples[lo:hi]))
}

// stop ends sampling and waits for the probe's goroutine to return.
func (p *speedProbe) stop() {
	close(p.quit)
	<-p.done
}

func meanRef(samples []speedSample) time.Duration {
	var sum time.Duration
	for _, s := range samples {
		sum += s.ref
	}
	return sum / time.Duration(len(samples))
}

// atRefSpeed rescales d, measured while the reference took ref, to the
// reference speed.
func atRefSpeed(d, ref time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refSpeed) / float64(ref))
}
