// Package tcpmodel simulates the server-side TCP sender of one video
// session: IW10 slow start, AIMD congestion avoidance, fast retransmit,
// RFC 6298 SRTT/RTTVAR/RTO estimation, a droptail bottleneck queue whose
// overflow produces the bursty end-of-slow-start losses the paper observes
// on a session's first chunk (Fig. 15). Conn.Info is the kernel's tcp_info
// view (CWND, SRTT, SRTTVAR, retx, MSS): sessions read it once per chunk,
// at chunk end, which is the sample the paper joins to each chunk from its
// CDN hosts' 500 ms series (Table 2).
//
// The model is a per-round fluid approximation: each round trip the sender
// transmits a window, the droptail queue at the bottleneck absorbs up to
// BufferBytes of standing data (adding queueing delay — the "self-loading"
// effect of §4.2), and segments beyond buffer capacity are lost. This keeps
// per-chunk costs at O(rounds) while reproducing the paper's loss and
// latency phenomenology.
package tcpmodel

import (
	"math"

	"vidperf/internal/stats"
)

// Params describes the network path as seen by one connection.
type Params struct {
	// BaseRTTms is the fixed two-way propagation + processing delay.
	BaseRTTms float64
	// JitterMS is the standard deviation of per-round RTT noise
	// (enterprise paths have large values; see netpath).
	JitterMS float64
	// BottleneckKbps is the path's bottleneck rate.
	BottleneckKbps float64
	// BufferBytes is the droptail queue size at the bottleneck. Zero
	// selects a default of one bandwidth-delay product.
	BufferBytes int64
	// RandomLossProb is a per-segment non-congestive loss probability
	// (wireless noise, enterprise middleboxes).
	RandomLossProb float64
	// RcvWindowBytes caps the window at the client's advertised receive
	// window (Flash-era clients commonly pinned it well below the path's
	// capacity, keeping many sessions loss-free and throughput-limited).
	// Zero means unlimited.
	RcvWindowBytes int64
	// MSS is the segment size in bytes (default 1460).
	MSS int
	// InitCwnd is the initial window in segments (default 10, IW10).
	InitCwnd int
	// Pacing enables server-side pacing (the §4.2 take-away, after
	// Trickle): bursts are smoothed so the bottleneck queue is charged at
	// drain rate rather than line rate, absorbing slow-start overshoot.
	Pacing bool
	// SlowStartAfterIdle resets the window after idle gaps (Linux default
	// on; video servers usually disable it — default false here).
	SlowStartAfterIdle bool
}

func (p Params) withDefaults() Params {
	if p.MSS == 0 {
		p.MSS = 1460
	}
	if p.InitCwnd == 0 {
		p.InitCwnd = 10
	}
	if p.BufferBytes == 0 {
		bdp := p.BottleneckKbps / 8 * p.BaseRTTms // bytes
		p.BufferBytes = int64(math.Max(bdp, float64(16*p.MSS)))
	}
	return p
}

// TCPInfo mirrors the kernel tcp_info fields the paper's CDN snapshots
// (Table 2, "CDN (TCP layer)").
type TCPInfo struct {
	AtMS         float64 // connection-relative sample time
	CWNDSegments int
	SRTTms       float64
	RTTVarMS     float64
	RetransTotal int // cumulative retransmitted segments
	MSS          int
}

// ThroughputKbps returns the paper's Eq. 3 estimate
// TP = MSS * CWND / SRTT, in kbps.
func (ti TCPInfo) ThroughputKbps() float64 {
	if ti.SRTTms <= 0 {
		return 0
	}
	return float64(ti.MSS*ti.CWNDSegments) * 8 / ti.SRTTms
}

// TransferResult reports one chunk's delivery.
type TransferResult struct {
	RTT0ms       float64 // round-trip experienced by the request/first byte
	FirstRoundMS float64 // duration of the first data round
	TotalMS      float64 // request-to-last-byte time on the wire
	LastByteMS   float64 // first-byte-to-last-byte time (player's D_LB view)
	SegmentsSent int
	SegmentsLost int // = retransmissions this chunk
	Rounds       int
	Timeouts     int
	CwndEnd      int
	SRTTEnd      float64
}

// LossRate returns SegmentsLost/SegmentsSent for the chunk.
func (t TransferResult) LossRate() float64 {
	if t.SegmentsSent == 0 {
		return 0
	}
	return float64(t.SegmentsLost) / float64(t.SegmentsSent)
}

// Conn is one long-lived sender. A video session uses a single Conn for
// all its chunks (the paper's sessions are one TCP connection). New returns
// it by value, so a session embeds its connection; a copy shares the
// generator.
type Conn struct {
	p Params
	r *stats.Rand

	cwnd     int // segments
	ssthresh int // segments
	srtt     float64
	rttvar   float64
	srttInit bool

	clockMS      float64
	retransTotal int
	queuedBytes  float64 // standing queue at the bottleneck
	extraDelayMS float64 // time-varying path delay (cross-traffic congestion)
}

// New creates a connection over the given path. r must not be shared with
// other concurrent components.
func New(p Params, r *stats.Rand) Conn {
	p = p.withDefaults()
	return Conn{
		p:        p,
		r:        r,
		cwnd:     p.InitCwnd,
		ssthresh: 1 << 30, // effectively unbounded until first loss
	}
}

// Params returns the path parameters the connection was built with.
func (c *Conn) Params() Params { return c.p }

// bdpBytes returns the path's current bandwidth-delay product. A
// congestion episode lengthens the path, so the pipe holds more bytes in
// flight — the window may (and does) grow to fill it.
func (c *Conn) bdpBytes() float64 {
	return c.p.BottleneckKbps / 8 * (c.p.BaseRTTms + c.extraDelayMS)
}

// rateBytesPerMS returns the bottleneck drain rate.
func (c *Conn) rateBytesPerMS() float64 { return c.p.BottleneckKbps / 8 }

// SetRandomLossProb overrides the path's per-segment random-loss
// probability from now on. Scripted scenarios (e.g. the paper's Fig. 13
// early-vs-late loss case study) use it to place loss episodes at chosen
// chunks. p is clamped to [0, 1]; NaN counts as 0.
func (c *Conn) SetRandomLossProb(p float64) {
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.p.RandomLossProb = p
}

// SetExtraDelayMS sets the current time-varying path delay component
// (e.g. a cross-traffic congestion episode on an enterprise uplink). It
// adds to every subsequent RTT sample until changed. A negative or NaN
// delay counts as 0.
func (c *Conn) SetExtraDelayMS(ms float64) {
	if ms < 0 || math.IsNaN(ms) {
		ms = 0
	}
	c.extraDelayMS = ms
}

// rttSample returns one round's RTT given the current standing queue.
func (c *Conn) rttSample() float64 {
	jitter := c.r.Norm(0, c.p.JitterMS)
	if jitter < 0 {
		jitter = -jitter // latency noise only adds delay
	}
	queueDelay := 0.0
	if rate := c.rateBytesPerMS(); rate > 0 {
		queueDelay = c.queuedBytes / rate
	}
	return c.p.BaseRTTms + c.extraDelayMS + jitter + queueDelay
}

// updateRTT folds one round's RTT into SRTT/RTTVAR per RFC 6298. The
// kernel updates the EWMA once per ACK — a full window yields dozens of
// updates per round — so SRTT converges to a new path level within about
// one round. acks approximates the ACK count (delayed ACKs: one per two
// segments), capped to bound the loop.
func (c *Conn) updateRTT(sample float64, acks int) {
	if !c.srttInit {
		c.srtt = sample
		c.rttvar = sample / 2
		c.srttInit = true
		return
	}
	if acks < 1 {
		acks = 1
	}
	if acks > 32 {
		acks = 32
	}
	// The EWMA runs in locals and is stored once: the steps are the same
	// expressions in the same order, so every rounding is the same, but
	// no store-to-load round trip sits on the floating-point chain.
	srtt, rttvar := c.srtt, c.rttvar
	for i := 0; i < acks; i++ {
		rttvar = 0.75*rttvar + 0.25*math.Abs(srtt-sample)
		srtt = 0.875*srtt + 0.125*sample
	}
	c.srtt, c.rttvar = srtt, rttvar
}

// RTOms returns the retransmission timeout per RFC 6298 with the Linux
// 200 ms floor.
func (c *Conn) RTOms() float64 {
	rto := c.srtt + 4*c.rttvar
	if rto < 200 {
		rto = 200
	}
	return rto
}

// RTOPaperms is the conservative RTO bound the paper's Eq. 5 uses for the
// persistent download-stack estimate: RTO = 200 ms + srtt + 4·srttvar.
func RTOPaperms(srttMS, rttvarMS float64) float64 {
	return 200 + srttMS + 4*rttvarMS
}

// Info returns a tcp_info snapshot at the current connection clock.
func (c *Conn) Info() TCPInfo {
	return TCPInfo{
		AtMS:         c.clockMS,
		CWNDSegments: c.cwnd,
		SRTTms:       c.srtt,
		RTTVarMS:     c.rttvar,
		RetransTotal: c.retransTotal,
		MSS:          c.p.MSS,
	}
}

// AdvanceIdle moves the connection clock forward without sending (the gap
// between chunk downloads while the playback buffer is full). The standing
// queue drains; optionally the window collapses (slow start after idle).
func (c *Conn) AdvanceIdle(ms float64) {
	if ms <= 0 {
		return
	}
	c.clockMS += ms
	drained := c.rateBytesPerMS() * ms
	c.queuedBytes = math.Max(0, c.queuedBytes-drained)
	if c.SSAfterIdleWouldTrigger(ms) {
		c.cwnd = c.p.InitCwnd
	}
}

// SSAfterIdleWouldTrigger reports whether an idle period of ms would reset
// the congestion window under the configured policy.
func (c *Conn) SSAfterIdleWouldTrigger(ms float64) bool {
	return c.p.SlowStartAfterIdle && ms > c.RTOms()
}

// lossesInWindow counts lost segments for a window of n segments given the
// droptail overflow (burst beyond buffer capacity) plus random loss.
// headroom is the data the path absorbs without overflow.
func (c *Conn) lossesInWindow(n int, windowBytes, headroom, mss float64) int {
	lost := 0
	if overflow := windowBytes - headroom; overflow > 0 {
		lost += int(math.Ceil(overflow / mss))
	}
	// Random per-segment loss: one Bool draw per segment not yet counted
	// lost, the bound shrinking as losses accrue.
	lost += c.r.BoolCount(c.p.RandomLossProb, n-lost)
	if lost > n {
		lost = n
	}
	return lost
}

// Transfer delivers size bytes to the client and returns the chunk's
// delivery metrics. The connection's congestion state persists across
// calls, so a session's later chunks start with the grown window. Info
// after the call is the chunk-end tcp_info sample.
func (c *Conn) Transfer(size int64) TransferResult {
	if size <= 0 {
		return TransferResult{CwndEnd: c.cwnd, SRTTEnd: c.srtt}
	}
	res := TransferResult{}
	bytesLeft := float64(size)
	rate := c.rateBytesPerMS()

	// The path, and with it the BDP, changes only between transfers, so
	// everything derived from it is computed once here.
	mss := float64(c.p.MSS)
	buf := float64(c.p.BufferBytes)
	bdp := c.bdpBytes()
	// Congestive loss: data beyond BDP + buffer cannot be absorbed.
	headroom := bdp + buf
	if c.p.Pacing {
		// Paced bursts arrive at drain rate, letting the queue service
		// traffic while it arrives: effective capacity roughly doubles
		// (Aggarwal et al.; Trickle).
		headroom += bdp + buf
	}
	// Cap the window at what the path can physically hold plus buffer,
	// with a little probe headroom so AIMD keeps testing the knee — and at
	// the client's receive window, which often binds first.
	maxW := int((bdp+buf)/mss) + c.p.InitCwnd
	if c.p.RcvWindowBytes > 0 {
		if rw := int(c.p.RcvWindowBytes / int64(c.p.MSS)); rw < maxW {
			maxW = rw
		}
	}
	if maxW < 2 {
		maxW = 2
	}

	for round := 0; bytesLeft > 0; round++ {
		windowBytes := float64(c.cwnd * c.p.MSS)
		// A full window is cwnd segments exactly; only the last, partial
		// window needs rounding up.
		sendBytes, nSegs := windowBytes, c.cwnd
		if bytesLeft < windowBytes {
			sendBytes = bytesLeft
			nSegs = int(math.Ceil(sendBytes / mss))
		}

		// Queue occupancy while this window is in flight.
		c.queuedBytes = math.Max(0, windowBytes-bdp)
		if c.queuedBytes > buf {
			c.queuedBytes = buf
		}

		rtt := c.rttSample()
		roundTime := rtt
		// A partial final window is serialization-limited, not ack-clocked.
		if sendBytes < windowBytes && rate > 0 {
			serial := sendBytes/rate + c.p.BaseRTTms/2
			roundTime = math.Min(rtt, math.Max(serial, 1))
		}

		lost := c.lossesInWindow(nSegs, sendBytes, headroom, mss)
		delivered := sendBytes - float64(lost*c.p.MSS)
		if delivered < 0 {
			delivered = 0
		}

		c.updateRTT(rtt, nSegs/2)
		c.clockMS += roundTime
		res.Rounds++
		res.SegmentsSent += nSegs
		res.SegmentsLost += lost
		c.retransTotal += lost
		if round == 0 {
			res.RTT0ms = rtt
			res.FirstRoundMS = roundTime
		}
		res.TotalMS += roundTime

		bytesLeft -= delivered

		// Congestion control reaction.
		switch {
		case lost >= nSegs && nSegs > 0:
			// Whole window lost: retransmission timeout.
			res.Timeouts++
			timeout := c.RTOms()
			c.clockMS += timeout
			res.TotalMS += timeout
			c.ssthresh = maxInt(c.cwnd/2, 2)
			c.cwnd = c.p.InitCwnd
		case lost > 0:
			// Fast retransmit / fast recovery: multiplicative decrease,
			// one extra round to retransmit.
			c.ssthresh = maxInt(c.cwnd/2, 2)
			c.cwnd = c.ssthresh
			recovery := c.rttSample()
			c.updateRTT(recovery, 4)
			c.clockMS += recovery
			res.TotalMS += recovery
			res.Rounds++
		default:
			// Congestion-window validation (RFC 2861): an application-
			// limited round (partial window) must not grow the window —
			// chunked video is app-limited most of the time, which is why
			// most real sessions never push the path to loss.
			if sendBytes >= windowBytes {
				if c.cwnd < c.ssthresh {
					// Slow start: the window doubles each round until the
					// threshold (one increment per acked segment).
					c.cwnd = minInt(c.cwnd*2, c.ssthresh)
				} else {
					// Congestion avoidance: +1 segment per round.
					c.cwnd++
				}
			}
		}
		if c.cwnd < 1 {
			c.cwnd = 1
		}
		if c.cwnd > maxW {
			c.cwnd = maxW
		}
	}

	res.CwndEnd = c.cwnd
	res.SRTTEnd = c.srtt
	if res.TotalMS > res.FirstRoundMS {
		res.LastByteMS = res.TotalMS - res.FirstRoundMS
	}
	// Serialization floor: data cannot arrive faster than the bottleneck.
	if rate > 0 {
		if floor := float64(size) / rate; res.LastByteMS < floor {
			res.LastByteMS = floor
			res.TotalMS = res.FirstRoundMS + floor
		}
	}
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
