package sim

import (
	"testing"
	"testing/quick"

	"vidperf/internal/stats"
)

func TestEventOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.At(30, Func(func(float64) { got = append(got, 3) }))
	e.At(10, Func(func(float64) { got = append(got, 1) }))
	e.At(20, Func(func(float64) { got = append(got, 2) }))
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, Func(func(float64) { got = append(got, i) }))
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []float64
	e.At(1, Func(func(now float64) {
		times = append(times, now)
		e.After(4, Func(func(now float64) {
			times = append(times, now)
		}))
	}))
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 5 {
		t.Fatalf("times = %v", times)
	}
}

func TestPastEventRunsNow(t *testing.T) {
	var e Engine
	e.At(10, Func(func(now float64) {}))
	e.Run()
	ran := false
	var at float64
	e.At(3, Func(func(now float64) { ran = true; at = now }))
	e.Run()
	if !ran || at != 10 {
		t.Fatalf("past event ran=%v at=%v, want at=10", ran, at)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var e Engine
	var at float64
	e.After(-5, Func(func(now float64) { at = now }))
	e.Run()
	if at != 0 {
		t.Errorf("at = %v, want 0", at)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var got []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		e.At(tm, Func(func(now float64) { got = append(got, now) }))
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("ran %d events, want 3", len(got))
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
	e.RunUntil(100)
	if e.Pending() != 0 || e.Now() != 100 {
		t.Errorf("after drain: pending=%d now=%v", e.Pending(), e.Now())
	}
}

// firings is a long-lived handler that counts how often it fired.
type firings int

func (f *firings) Fire(float64) { *f++ }

// TestScheduleHandlerAllocationFree: scheduling a long-lived handler and
// stepping it allocates nothing once the event heap has capacity.
func TestScheduleHandlerAllocationFree(t *testing.T) {
	var e Engine
	var h firings
	e.After(1, &h)
	e.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, &h)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocates %v objects per event, want 0", allocs)
	}
	if h != 1002 {
		t.Fatalf("handler fired %d times, want 1002", h)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}

// Property: for any random schedule, events execute in non-decreasing time
// order and the clock never moves backwards.
func TestMonotoneClockProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		var e Engine
		n := 5 + r.Intn(100)
		var last float64 = -1
		ok := true
		for i := 0; i < n; i++ {
			e.At(r.Uniform(0, 1000), Func(func(now float64) {
				if now < last {
					ok = false
				}
				last = now
				// Occasionally schedule follow-up work.
				if r.Bool(0.3) {
					e.After(r.Uniform(0, 50), Func(func(float64) {}))
				}
			}))
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
