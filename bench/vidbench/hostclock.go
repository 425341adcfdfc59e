package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// calNominalMS is the calibration kernel's time on the nominal host that
// every time metric is expressed in. A shared 2-vCPU Xeon VM ran the
// kernel in 30 to 35 ms when quiet and in 45 to 60 ms when busy.
const calNominalMS = 30

// hostClock rescales times measured on a shared host to the nominal host.
// Other tenants slow a shared host's CPUs to as little as about half their
// speed, each CPU on its own, for tens of milliseconds to minutes at a
// time, which moves raw median op times by 10-36% between runs of the same
// code. A fixed kernel, timed on every CPU at once right after every op
// and averaged with the round timed right before it, measures how fast the
// host ran around the op; each op's time is multiplied by calNominalMS /
// that kernel time. Every CPU is timed because the op's goroutine moves
// between CPUs and the garbage collector runs on the others. The kernel is
// bench code that no change to the simulator touches, so a slower
// simulator still reads slower.
type hostClock struct {
	last float64   // the latest kernel time, ms (0 before the first)
	cals []float64 // every kernel time, ms
}

// scale times the kernel once and returns the factor that rescales the
// op that just ended, and the process CPU time up to which that op is
// charged.
//
// The kernel runs while no garbage collection does. It never allocates,
// but a cycle the op started may still be marking when the op ends, and
// its workers would then take CPU time from the kernel: an op that
// allocated more would make the host look slower and itself faster.
// Turning the collector off first waits for such a cycle to finish
// marking, and keeps a new one from starting until the kernel ends. The
// CPU time that marking takes is the op's, so cpuS is read after it.
func (h *hostClock) scale() (factor, cpuS float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpuS = cpuSeconds()
	c := calibrateAll()
	ref := c
	if h.last > 0 {
		ref = (h.last + c) / 2
	}
	h.last = c
	h.cals = append(h.cals, c)
	return calNominalMS / ref, cpuS
}

// calState is one kernel's state: a binary heap of event times and a
// table of counters, like the simulator's event loop and telemetry fold.
// Both are pointer-free and fixed-size, so the kernel never allocates,
// never assists or waits for the garbage collector, and stays
// cache-resident.
type calState struct {
	heap  [4096]float64
	table [1 << 15]uint64
	sink  float64
	ms    float64 // the latest run's wall time
}

// calStates holds one kernel state per CPU, allocated on first use.
var calStates []calState

// calibrateAll runs the kernel on every CPU at once and returns the mean
// of their wall times, in ms.
func calibrateAll() float64 {
	if calStates == nil {
		calStates = make([]calState, runtime.GOMAXPROCS(0))
	}
	var wg sync.WaitGroup
	for i := 1; i < len(calStates); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calStates[i].run()
		}()
	}
	calStates[0].run()
	wg.Wait()
	var sum float64
	for i := range calStates {
		sum += calStates[i].ms
	}
	return sum / float64(len(calStates))
}

// run runs the kernel once, about 30 ms on the nominal host, and records
// its wall time in s.ms.
func (s *calState) run() {
	t0 := time.Now()
	x := uint64(88172645463325252)
	n := 0
	var popped float64
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := float64(x>>11) / (1 << 53)
		if n == len(s.heap) {
			popped += s.heap[0]
			n--
			s.heap[0] = s.heap[n]
			for j := 0; ; {
				l := 2*j + 1
				if l >= n {
					break
				}
				if r := l + 1; r < n && s.heap[r] < s.heap[l] {
					l = r
				}
				if s.heap[j] <= s.heap[l] {
					break
				}
				s.heap[j], s.heap[l] = s.heap[l], s.heap[j]
				j = l
			}
		}
		s.heap[n] = v + math.Log1p(v)
		for j := n; j > 0; {
			p := (j - 1) / 2
			if s.heap[p] <= s.heap[j] {
				break
			}
			s.heap[p], s.heap[j] = s.heap[j], s.heap[p]
			j = p
		}
		n++
		s.table[(x*0x9e3779b97f4a7c15)>>49] += x & 0xff
	}
	s.sink += popped
	s.ms = float64(time.Since(t0)) / 1e6
}
