package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"

	"vidperf/internal/stats"
)

func cleanPath() Params {
	return Params{
		BaseRTTms:      40,
		JitterMS:       0,
		BottleneckKbps: 20000, // 20 Mbps
	}
}

func TestDefaults(t *testing.T) {
	c := New(Params{BaseRTTms: 40, BottleneckKbps: 10000}, stats.NewRand(1))
	p := c.Params()
	if p.MSS != 1460 {
		t.Errorf("MSS = %d", p.MSS)
	}
	if p.InitCwnd != 10 {
		t.Errorf("InitCwnd = %d", p.InitCwnd)
	}
	if p.BufferBytes <= 0 {
		t.Errorf("BufferBytes = %d", p.BufferBytes)
	}
}

func TestTransferDeliversAllBytes(t *testing.T) {
	c := New(cleanPath(), stats.NewRand(2))
	res := c.Transfer(750000) // one 6 s chunk at 1 Mbps
	if res.TotalMS <= 0 {
		t.Fatal("no time elapsed")
	}
	wantSegs := int(math.Ceil(750000.0 / 1460))
	if res.SegmentsSent < wantSegs {
		t.Errorf("sent %d segments, want >= %d", res.SegmentsSent, wantSegs)
	}
	if res.SegmentsLost != 0 {
		// Clean path with big buffer: slow-start overshoot may still lose;
		// but with BDP-sized buffer the first chunk CAN lose. Accept loss
		// but retx must never exceed sent.
		if res.SegmentsLost > res.SegmentsSent {
			t.Errorf("lost %d > sent %d", res.SegmentsLost, res.SegmentsSent)
		}
	}
}

func TestSlowStartGrowsWindow(t *testing.T) {
	c := New(cleanPath(), stats.NewRand(3))
	if c.Info().CWNDSegments != 10 {
		t.Fatalf("initial cwnd = %d", c.Info().CWNDSegments)
	}
	c.Transfer(300000)
	if c.Info().CWNDSegments <= 10 {
		t.Errorf("cwnd did not grow: %d", c.Info().CWNDSegments)
	}
}

func TestFirstChunkLosesMoreThanLater(t *testing.T) {
	// The Fig. 15 effect: slow-start overshoot concentrates losses on the
	// session's first chunk. Use a constrained path so overshoot occurs.
	p := Params{BaseRTTms: 50, BottleneckKbps: 8000, BufferBytes: 64 * 1460}
	var first, later stats.Summary
	for seed := uint64(0); seed < 60; seed++ {
		c := New(p, stats.NewRand(seed))
		r0 := c.Transfer(2000000)
		first.Add(r0.LossRate())
		for i := 0; i < 4; i++ {
			ri := c.Transfer(2000000)
			later.Add(ri.LossRate())
		}
	}
	if first.Mean() <= later.Mean() {
		t.Errorf("first-chunk loss %.4f not above later-chunk loss %.4f",
			first.Mean(), later.Mean())
	}
}

func TestSRTTReflectsSelfLoading(t *testing.T) {
	// When the window exceeds the BDP, standing queue inflates measured
	// SRTT above the base RTT (§4.2's self-loading caveat).
	p := Params{BaseRTTms: 40, BottleneckKbps: 5000, BufferBytes: 400 * 1460}
	c := New(p, stats.NewRand(4))
	c.Transfer(4000000)
	if c.Info().SRTTms <= 40 {
		t.Errorf("SRTT %.1f not inflated above base RTT", c.Info().SRTTms)
	}
}

func TestThroughputApproachesBottleneck(t *testing.T) {
	p := cleanPath() // 20 Mbps
	c := New(p, stats.NewRand(5))
	// Warm up the window, then measure a large transfer.
	c.Transfer(1000000)
	size := int64(10000000) // 10 MB
	res := c.Transfer(size)
	gotKbps := float64(size) * 8 / res.TotalMS
	if gotKbps > p.BottleneckKbps*1.05 {
		t.Errorf("throughput %.0f kbps exceeds bottleneck %.0f", gotKbps, p.BottleneckKbps)
	}
	if gotKbps < p.BottleneckKbps*0.5 {
		t.Errorf("throughput %.0f kbps too far below bottleneck %.0f", gotKbps, p.BottleneckKbps)
	}
}

func TestRandomLossCausesRetransmissions(t *testing.T) {
	p := cleanPath()
	p.RandomLossProb = 0.02
	c := New(p, stats.NewRand(6))
	res := c.Transfer(3000000)
	if res.SegmentsLost == 0 {
		t.Error("no losses despite 2% random loss")
	}
	rate := res.LossRate()
	if rate < 0.005 || rate > 0.10 {
		t.Errorf("loss rate %.4f implausible for p=0.02", rate)
	}
}

func TestRTOBounds(t *testing.T) {
	c := New(cleanPath(), stats.NewRand(7))
	if got := c.RTOms(); got != 200 {
		t.Errorf("pre-sample RTO = %v, want 200 floor", got)
	}
	c.Transfer(100000)
	if got := c.RTOms(); got < 200 {
		t.Errorf("RTO %v below floor", got)
	}
	if got := RTOPaperms(60, 5); got != 280 {
		t.Errorf("RTOPaperms = %v, want 280", got)
	}
}

// checkChunkEndInfo transfers size bytes five times on one connection and
// checks that Info after each transfer is the chunk-end tcp_info sample the
// session joins to its chunk record: it carries the MSS and the window and
// SRTT the transfer ended with, its retransmission count moved by the
// transfer's losses, and its clock moved forward by the transfer's wire
// time (less any serialization-floor padding, which stretches TotalMS but
// not the connection clock), so successive samples are time-ordered.
func checkChunkEndInfo(t *testing.T, name string, p Params, size int64) {
	t.Helper()
	c := New(p, stats.NewRand(8))
	for i := 0; i < 5; i++ {
		before := c.Info()
		res := c.Transfer(size)
		info := c.Info()
		if info.MSS != 1460 {
			t.Fatalf("%s chunk %d: MSS = %d", name, i, info.MSS)
		}
		if info.CWNDSegments != res.CwndEnd || !sameBits(info.SRTTms, res.SRTTEnd) {
			t.Fatalf("%s chunk %d: Info cwnd %d srtt %v, transfer ended at %d, %v",
				name, i, info.CWNDSegments, info.SRTTms, res.CwndEnd, res.SRTTEnd)
		}
		if d := info.AtMS - before.AtMS; !(d > 0) || d > res.TotalMS+1e-6 {
			t.Fatalf("%s chunk %d: clock moved %v ms over a %v ms transfer", name, i, d, res.TotalMS)
		}
		if info.RetransTotal-before.RetransTotal != res.SegmentsLost {
			t.Fatalf("%s chunk %d: retx moved %d, transfer lost %d",
				name, i, info.RetransTotal-before.RetransTotal, res.SegmentsLost)
		}
	}
}

// TestSnapshotsEvery500ms: the paper's CDN hosts sample tcp_info every
// 500 ms and join each chunk to its last sample; the model takes only that
// last one. On a slow path each chunk spans many 500 ms intervals, and the
// chunk-end samples still carry MSS and come in time order.
func TestSnapshotsEvery500ms(t *testing.T) {
	p := Params{BaseRTTms: 80, BottleneckKbps: 2000}
	c := New(p, stats.NewRand(8))
	if res := c.Transfer(3000000); res.TotalMS < 5000 {
		t.Fatalf("transfer unexpectedly fast: %v ms", res.TotalMS)
	}
	checkChunkEndInfo(t, "12 s at 2 Mbps", p, 3000000)
}

// TestAtLeastOneSnapshotPerChunk: even a chunk far shorter than 500 ms gets
// its own chunk-end sample.
func TestAtLeastOneSnapshotPerChunk(t *testing.T) {
	checkChunkEndInfo(t, "small fast chunks", cleanPath(), 50000)
}

// TestInfoIsChunkEndSnapshot: the chunk-end sample matches the transfer's
// end state on a lossy path too.
func TestInfoIsChunkEndSnapshot(t *testing.T) {
	checkChunkEndInfo(t, "lossy", Params{BaseRTTms: 60, JitterMS: 5, BottleneckKbps: 4000, RandomLossProb: 0.02}, 750000)
}

func TestEq3Throughput(t *testing.T) {
	ti := TCPInfo{CWNDSegments: 20, SRTTms: 50, MSS: 1460}
	want := float64(20*1460) * 8 / 50
	if got := ti.ThroughputKbps(); got != want {
		t.Errorf("Eq3 = %v, want %v", got, want)
	}
	if (TCPInfo{}).ThroughputKbps() != 0 {
		t.Error("zero SRTT should yield 0")
	}
}

func TestIdleDrainsQueueAndOptionallyResets(t *testing.T) {
	p := Params{BaseRTTms: 40, BottleneckKbps: 5000, BufferBytes: 400 * 1460}
	c := New(p, stats.NewRand(10))
	c.Transfer(4000000)
	grown := c.Info().CWNDSegments
	if grown <= 10 {
		t.Fatalf("window did not grow: %d", grown)
	}
	c.AdvanceIdle(5000)
	if c.Info().CWNDSegments != grown {
		t.Error("window reset despite SlowStartAfterIdle=false")
	}

	p.SlowStartAfterIdle = true
	c2 := New(p, stats.NewRand(10))
	c2.Transfer(4000000)
	c2.AdvanceIdle(5000)
	if c2.Info().CWNDSegments != 10 {
		t.Errorf("window = %d after idle, want reset to 10", c2.Info().CWNDSegments)
	}
}

func TestPacingReducesFirstChunkLoss(t *testing.T) {
	base := Params{BaseRTTms: 50, BottleneckKbps: 8000, BufferBytes: 64 * 1460}
	var unpaced, paced stats.Summary
	for seed := uint64(0); seed < 60; seed++ {
		c1 := New(base, stats.NewRand(seed))
		unpaced.Add(c1.Transfer(2000000).LossRate())
		pp := base
		pp.Pacing = true
		c2 := New(pp, stats.NewRand(seed))
		paced.Add(c2.Transfer(2000000).LossRate())
	}
	if paced.Mean() >= unpaced.Mean() {
		t.Errorf("pacing did not reduce loss: paced %.4f vs unpaced %.4f",
			paced.Mean(), unpaced.Mean())
	}
}

func TestZeroAndNegativeSize(t *testing.T) {
	c := New(cleanPath(), stats.NewRand(11))
	res := c.Transfer(0)
	if res.TotalMS != 0 || res.SegmentsSent != 0 {
		t.Errorf("zero-size transfer did work: %+v", res)
	}
	res = c.Transfer(-5)
	if res.TotalMS != 0 {
		t.Error("negative size transferred")
	}
}

func TestDeterminism(t *testing.T) {
	a := New(cleanPath(), stats.NewRand(12))
	b := New(cleanPath(), stats.NewRand(12))
	for i := 0; i < 5; i++ {
		ra, rb := a.Transfer(500000), b.Transfer(500000)
		if ra.TotalMS != rb.TotalMS || ra.SegmentsLost != rb.SegmentsLost {
			t.Fatalf("chunk %d diverged", i)
		}
	}
}

// Property: for any path and size, transfers conserve sanity — non-negative
// times, losses <= sent, last-byte time <= total, clock monotone.
func TestTransferInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		p := Params{
			BaseRTTms:      r.Uniform(5, 300),
			JitterMS:       r.Uniform(0, 30),
			BottleneckKbps: r.Uniform(500, 50000),
			RandomLossProb: r.Float64() * 0.05,
		}
		c := New(p, r.Split())
		prevClock := 0.0
		for i := 0; i < 8; i++ {
			size := int64(r.Intn(3000000) + 1)
			res := c.Transfer(size)
			if res.TotalMS < 0 || res.LastByteMS < 0 || res.FirstRoundMS < 0 {
				return false
			}
			if res.SegmentsLost > res.SegmentsSent {
				return false
			}
			if res.LastByteMS > res.TotalMS+1e-9 {
				return false
			}
			info := c.Info()
			if info.AtMS < prevClock {
				return false
			}
			prevClock = info.AtMS
			if info.CWNDSegments < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SRTT stays within sane bounds of the base RTT (never below,
// never beyond base + max queue + generous jitter margin).
func TestSRTTBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		base := r.Uniform(10, 200)
		p := Params{BaseRTTms: base, JitterMS: 5, BottleneckKbps: 5000}
		c := New(p, r.Split())
		c.Transfer(int64(r.Intn(4000000) + 1000))
		srtt := c.Info().SRTTms
		maxQueue := float64(c.Params().BufferBytes) / (p.BottleneckKbps / 8)
		return srtt >= base-1e-6 && srtt <= base+maxQueue+20*5+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// kernelOp is one call in a differential script: a transfer, an idle
// gap, or a change of the path's extra delay or loss probability.
type kernelOp struct {
	kind int // opTransfer, opIdle, opExtraDelay, opLossProb
	size int64
	x    float64
}

const (
	opTransfer = iota
	opIdle
	opExtraDelay
	opLossProb
	numOps
)

// deadLossProb is the loss probability from which a transfer is not
// expected to finish: at p = 1 the last segment of every transfer is lost
// again and again. Scripts check the loss kernel itself there instead.
const deadLossProb = 0.5

// minBufferBytes is the smallest explicit buffer the scripts draw. It
// exceeds every MSS they draw: a path that cannot hold one segment loses
// every window it sends, and its transfers never finish either.
const minBufferBytes = 9500

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameParams(a, b Params) bool {
	return sameBits(a.BaseRTTms, b.BaseRTTms) && sameBits(a.JitterMS, b.JitterMS) &&
		sameBits(a.BottleneckKbps, b.BottleneckKbps) && a.BufferBytes == b.BufferBytes &&
		sameBits(a.RandomLossProb, b.RandomLossProb) && a.RcvWindowBytes == b.RcvWindowBytes &&
		a.MSS == b.MSS && a.InitCwnd == b.InitCwnd && a.Pacing == b.Pacing &&
		a.SlowStartAfterIdle == b.SlowStartAfterIdle
}

func sameInfo(a, b TCPInfo) bool {
	return sameBits(a.AtMS, b.AtMS) && a.CWNDSegments == b.CWNDSegments &&
		sameBits(a.SRTTms, b.SRTTms) && sameBits(a.RTTVarMS, b.RTTVarMS) &&
		a.RetransTotal == b.RetransTotal && a.MSS == b.MSS
}

// sameResult compares every TransferResult field bit for bit. The
// chunk-end tcp_info sample is Info, which sameState compares.
func sameResult(a, b TransferResult) bool {
	return sameBits(a.RTT0ms, b.RTT0ms) && sameBits(a.FirstRoundMS, b.FirstRoundMS) &&
		sameBits(a.TotalMS, b.TotalMS) && sameBits(a.LastByteMS, b.LastByteMS) &&
		a.SegmentsSent == b.SegmentsSent && a.SegmentsLost == b.SegmentsLost &&
		a.Rounds == b.Rounds && a.Timeouts == b.Timeouts && a.CwndEnd == b.CwndEnd &&
		sameBits(a.SRTTEnd, b.SRTTEnd)
}

// sameState compares every field the two kernels share, bit for bit.
func sameState(c *Conn, ref *refConn) bool {
	return sameParams(c.p, ref.p) && c.cwnd == ref.cwnd && c.ssthresh == ref.ssthresh &&
		sameBits(c.srtt, ref.srtt) && sameBits(c.rttvar, ref.rttvar) && c.srttInit == ref.srttInit &&
		sameBits(c.clockMS, ref.clockMS) &&
		c.retransTotal == ref.retransTotal && sameBits(c.queuedBytes, ref.queuedBytes) &&
		sameBits(c.extraDelayMS, ref.extraDelayMS) && sameBits(c.RTOms(), ref.RTOms()) &&
		sameInfo(c.Info(), ref.Info())
}

// runKernelScript drives a Conn and the reference kernel through the same
// calls over the same path and seed, and fails at the first call after
// which their results, state or generators differ. Each check draws one
// Uint64 from both generators, which keeps them in step.
func runKernelScript(t testing.TB, p Params, seed uint64, ops []kernelOp) {
	t.Helper()
	c := New(p, stats.NewRand(seed))
	ref := newRefConn(p, stats.NewRand(seed))
	for i, op := range ops {
		switch op.kind {
		case opTransfer:
			if c.p.RandomLossProb > deadLossProb {
				checkLossKernel(t, &c, ref, op.size)
				break
			}
			got, want := c.Transfer(op.size), ref.Transfer(op.size)
			if !sameResult(got, want) {
				t.Fatalf("params %+v seed %d op %d Transfer(%d):\n got %+v\nwant %+v", p, seed, i, op.size, got, want)
			}
		case opIdle:
			c.AdvanceIdle(op.x)
			ref.AdvanceIdle(op.x)
		case opExtraDelay:
			c.SetExtraDelayMS(op.x)
			ref.SetExtraDelayMS(op.x)
		case opLossProb:
			c.SetRandomLossProb(op.x)
			ref.SetRandomLossProb(op.x)
		}
		if !sameState(&c, ref) {
			t.Fatalf("params %+v seed %d op %d %+v: state diverged:\n got %+v\nwant %+v", p, seed, i, op, c, *ref)
		}
		if c.r.Uint64() != ref.r.Uint64() {
			t.Fatalf("params %+v seed %d op %d %+v: generators diverged", p, seed, i, op)
		}
	}
}

// checkLossKernel compares one window's loss count on a path where a
// whole transfer would not finish, over windows around the size's.
func checkLossKernel(t testing.TB, c *Conn, ref *refConn, size int64) {
	t.Helper()
	mss := float64(c.p.MSS)
	buf := float64(c.p.BufferBytes)
	headroom := c.bdpBytes() + buf
	if c.p.Pacing {
		headroom += c.bdpBytes() + buf
	}
	n := int(size%4096) + 1
	for _, segs := range []int{0, 1, 2, n, 3 * n} {
		w := float64(segs * c.p.MSS)
		got, want := c.lossesInWindow(segs, w, headroom, mss), ref.lossesInWindow(segs, w)
		if got != want {
			t.Fatalf("lossesInWindow(%d, %v) at p=%v = %d, reference %d", segs, w, c.p.RandomLossProb, got, want)
		}
	}
}

// randomKernelCase draws a path and a script that reach every branch of
// the kernel: default and explicit buffers, MSS and initial windows;
// pacing; slow start after idle; receive windows; zero jitter; loss
// probabilities at the edges of the draw comparison; partial, single- and
// many-round transfers; and mid-connection idles, delays and loss changes.
func randomKernelCase(r *stats.Rand) (Params, []kernelOp) {
	const ulp = 1.0 / (1 << 53)
	losses := []float64{0, 5e-324, 1e-4, 0.3, 1 - ulp, 1}
	p := Params{
		BaseRTTms:          r.Uniform(1, 400),
		BottleneckKbps:     300 * math.Exp2(r.Uniform(0, 10)),
		RandomLossProb:     losses[r.Intn(len(losses))],
		Pacing:             r.Bool(0.5),
		SlowStartAfterIdle: r.Bool(0.5),
	}
	if r.Bool(0.75) {
		p.JitterMS = r.Uniform(0, 40)
	}
	if r.Bool(0.5) {
		p.BufferBytes = minBufferBytes + int64(r.Intn(512<<10))
	}
	if r.Bool(0.5) {
		p.MSS = r.Intn(9000) + 500
	}
	mss := int64(p.withDefaults().MSS)
	switch r.Intn(5) {
	case 0, 1:
		p.RcvWindowBytes = int64(r.Intn(4<<20) + 1)
	case 2:
		p.RcvWindowBytes = int64(r.Intn(int(3*mss)) + 1) // caps cwnd at 2
	}
	if r.Bool(0.5) {
		p.InitCwnd = r.Intn(40) + 1
	}
	ops := make([]kernelOp, r.Intn(40)+1)
	for i := range ops {
		op := kernelOp{kind: r.Intn(numOps)}
		if r.Bool(0.4) {
			op.kind = opTransfer
		}
		switch op.kind {
		case opTransfer:
			switch r.Intn(6) {
			case 0:
				op.size = int64(r.Intn(3)) - 1 // -1, 0 or 1 byte
			case 1:
				op.size = int64(r.Intn(int(10*mss))) + 1 // inside the first window
			case 2:
				op.size = int64(r.Intn(64)+1)*mss + int64(r.Intn(3)) - 1 // at a window's edge
			case 3:
				ladder := []int64{235, 375, 560, 750, 1050, 1750, 2350, 3000}
				op.size = ladder[r.Intn(len(ladder))] * 1000 / 8 * 6
			default:
				op.size = int64(r.Intn(8<<20)) + 1
			}
		case opIdle:
			op.x = r.Uniform(-100, 10000)
		case opExtraDelay:
			op.x = []float64{math.NaN(), -5, 0, r.Uniform(0, 3000)}[r.Intn(4)]
		case opLossProb:
			op.x = append([]float64{math.NaN(), -0.5, 1.5, r.Uniform(0, 0.1)}, losses...)[r.Intn(4+len(losses))]
		}
		ops[i] = op
	}
	return p, ops
}

// TestTransferMatchesReference drives the kernel and the reference kernel
// through random paths and call scripts and requires bit-identical
// results, chunk-end tcp_info, connection state and generator state after
// every call.
func TestTransferMatchesReference(t *testing.T) {
	r := stats.NewRand(2016)
	for i := 0; i < 400; i++ {
		p, ops := randomKernelCase(r)
		runKernelScript(t, p, r.Uint64(), ops)
	}
}

// fuzzReader hands out the fuzz input a little at a time; past its end
// every read is zero.
type fuzzReader []byte

func (f *fuzzReader) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzReader) u16() int { return int(f.byte())<<8 | int(f.byte()) }

// unit returns a value in [0, 1].
func (f *fuzzReader) unit() float64 { return float64(f.u16()) / 65535 }

// FuzzTransferMatchesReference decodes a path and a short call script
// from the input and checks the kernel against the reference kernel, as
// TestTransferMatchesReference does for seeded random cases.
func FuzzTransferMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x40\x00\x10\x00\x80\x00\x01\x02\x03\x04\x05\x06\x07\x08\x00\x20\x00\x00\x30\x00\x01\x40\x00\x02\x10\x00\x03\x05"))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\x03\x01\xff\xff\x01\xff\xff\x01\x10\x00\x01\x20\x00\x01\x00\xff\xff\x03\x02\x00\xff\xff"))
	f.Add([]byte("\x08\x00\x00\x01\x00\x40\x05\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x03\x00\x00\x00\x7f\xff\x00\x7f\xff"))
	const ulp = 1.0 / (1 << 53)
	losses := []float64{0, 5e-324, 1e-4, 0.01, 0.3, 1 - ulp, 1, math.NaN(), -1, 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		p := Params{
			BaseRTTms:      1 + 500*in.unit(),
			BottleneckKbps: 100 * math.Exp2(12*in.unit()),
		}
		if b := in.byte(); b%4 != 0 {
			p.JitterMS = 40 * float64(b) / 255
		}
		p.RandomLossProb = losses[int(in.byte())%7] // NaN and out-of-range only via the setter
		flags := in.byte()
		p.Pacing = flags&1 != 0
		p.SlowStartAfterIdle = flags&2 != 0
		if flags&4 != 0 {
			p.BufferBytes = minBufferBytes + int64(in.u16())*8
		}
		if flags&8 != 0 {
			p.RcvWindowBytes = int64(in.u16())*64 + 1
		}
		if flags&16 != 0 {
			p.MSS = 500 + in.u16()%9000
		}
		if flags&32 != 0 {
			p.InitCwnd = 1 + int(in.byte())%64
		}
		seed := uint64(in.u16())
		var ops []kernelOp
		for len(in) > 0 && len(ops) < 24 {
			op := kernelOp{kind: int(in.byte()) % numOps}
			switch op.kind {
			case opTransfer:
				op.size = int64(in.u16())*int64(in.byte()%128) - 1
			case opIdle:
				op.x = 20000*in.unit() - 100
			case opExtraDelay:
				if b := in.byte(); b == 0 {
					op.x = math.NaN()
				} else {
					op.x = 3000*float64(b)/255 - 10
				}
			case opLossProb:
				op.x = losses[int(in.byte())%len(losses)]
			}
			ops = append(ops, op)
		}
		runKernelScript(t, p, seed, ops)
	})
}

// TestSettersTreatNaNAsZero: a NaN delay or loss probability acts as 0,
// as a negative one does, instead of passing both clamps and poisoning
// the window cap (a NaN delay once pinned cwnd at 2 for hundreds of
// rounds and made TotalMS and SRTT NaN).
func TestSettersTreatNaNAsZero(t *testing.T) {
	p := cleanPath()
	p.JitterMS = 2
	p.RandomLossProb = 1e-3
	for _, tc := range []struct {
		name string
		set  func(*Conn, float64)
	}{
		{"SetExtraDelayMS", (*Conn).SetExtraDelayMS},
		{"SetRandomLossProb", (*Conn).SetRandomLossProb},
	} {
		nan, zero := New(p, stats.NewRand(13)), New(p, stats.NewRand(13))
		tc.set(&nan, math.NaN())
		tc.set(&zero, 0)
		for i := 0; i < 3; i++ {
			got, want := nan.Transfer(2000000), zero.Transfer(2000000)
			if !sameResult(got, want) {
				t.Fatalf("%s(NaN): chunk %d = %+v, want the zero setting's %+v", tc.name, i, got, want)
			}
			if math.IsNaN(got.TotalMS) || math.IsNaN(got.SRTTEnd) || got.Rounds > 100 {
				t.Fatalf("%s(NaN): chunk %d took %d rounds, TotalMS %v, SRTT %v", tc.name, i, got.Rounds, got.TotalMS, got.SRTTEnd)
			}
		}
	}
}

// TestTransferAllocationFree: a connection is a value, so building one
// and running four transfers over it allocates nothing; a session embeds
// its connection and pays no allocation for it.
func TestTransferAllocationFree(t *testing.T) {
	r := stats.NewRand(14)
	var res TransferResult
	allocs := testing.AllocsPerRun(50, func() {
		c := New(cleanPath(), r)
		for i := 0; i < 4; i++ {
			res = c.Transfer(750000)
		}
	})
	if allocs != 0 {
		t.Errorf("a connection and four transfers allocate %.0f objects, want 0", allocs)
	}
	if res.SegmentsSent == 0 {
		t.Fatal("transfers sent nothing")
	}
}
