// Package sim implements a minimal deterministic discrete-event simulation
// engine. The session runner uses it to interleave chunk requests from many
// concurrent video sessions at the CDN servers, so that shared state (the
// per-server caches and worker pools) sees requests in global time order,
// exactly as a production server fleet would.
//
// Time is a float64 in milliseconds. Events scheduled for the same instant
// fire in scheduling order (a monotonically increasing sequence number
// breaks ties), which keeps runs reproducible: (at, seq) is a strict total
// order, so the pop sequence is independent of the heap's internal layout.
//
// An Engine is strictly single-goroutine. Scaling comes from partitioning:
// a campaign splits into disjoint event systems (one per CDN server), each
// described by a Shard and run on its worker's Engine by RunShards.
package sim

// Handler is the work an event does when the engine reaches its time.
// Every event is a Handler, so scheduling has a single path. Hot paths
// schedule long-lived or recycled handlers (a session, a server's
// in-flight request), which cost no allocation per event; one-off
// callbacks use Func.
type Handler interface {
	Fire(now float64)
}

// Func adapts a plain function to Handler.
type Func func(now float64)

// Fire calls f(now).
func (f Func) Fire(now float64) { f(now) }

type item struct {
	at  float64
	seq uint64
	h   Handler
}

// eventHeap is a hand-rolled binary min-heap over (at, seq). It avoids
// container/heap's interface boxing, which allocated one escape per push
// on the hottest scheduling path in the simulator.
type eventHeap []item

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		smallest := i
		if l := 2*i + 1; l < n && h.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Engine is a future-event-list simulator. The zero value is ready to use.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
}

// Reset readies the engine for a new run from time 0, dropping any
// pending events. It keeps the event heap's backing array, so a worker
// that runs shard after shard on one engine grows it only to the
// largest heap any of them needs.
func (e *Engine) Reset() {
	clear(e.events)
	*e = Engine{events: e.events[:0]}
}

// Now returns the current simulated time in milliseconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules h to fire at absolute time at. Events scheduled in the past
// fire at the current time (the engine never moves backwards).
func (e *Engine) At(at float64, h Handler) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events = append(e.events, item{at: at, seq: e.seq, h: h})
	e.events.siftUp(len(e.events) - 1)
}

// After schedules h to fire delay milliseconds from now.
func (e *Engine) After(delay float64, h Handler) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, h)
}

// pop removes and returns the earliest event, releasing the vacated
// slot's handler so finished events do not linger in the backing array.
func (e *Engine) pop() item {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = item{}
	e.events = h[:n]
	e.events.siftDown(0)
	return top
}

// Step executes the single earliest event. It reports whether an event ran.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := e.pop()
	e.now = it.at
	it.h.Fire(e.now)
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= deadline. Later events remain queued
// and the clock advances to deadline if it had not yet reached it.
func (e *Engine) RunUntil(deadline float64) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
