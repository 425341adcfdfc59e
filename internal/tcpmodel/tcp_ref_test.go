package tcpmodel

import (
	"math"

	"vidperf/internal/stats"
)

// refConn is the straightforward per-round kernel Conn is checked against.
// Transfer, updateRTT and lossesInWindow are the plain transcription of the
// model: state read and written through the receiver on every step, one
// Bool draw per segment, and every per-round quantity recomputed each
// round. Conn must match it bit for bit, RNG draws included.
//
// The setters carry the same NaN handling as Conn's (NaN counts as 0), so
// the two can be driven by the same scripts.
type refConn struct {
	p Params
	r *stats.Rand

	cwnd     int
	ssthresh int
	srtt     float64
	rttvar   float64
	srttInit bool

	clockMS      float64
	retransTotal int
	queuedBytes  float64
	extraDelayMS float64
}

func newRefConn(p Params, r *stats.Rand) *refConn {
	p = p.withDefaults()
	return &refConn{
		p:        p,
		r:        r,
		cwnd:     p.InitCwnd,
		ssthresh: 1 << 30,
	}
}

func (c *refConn) bdpBytes() float64 {
	return c.p.BottleneckKbps / 8 * (c.p.BaseRTTms + c.extraDelayMS)
}

func (c *refConn) rateBytesPerMS() float64 { return c.p.BottleneckKbps / 8 }

func (c *refConn) SetRandomLossProb(p float64) {
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.p.RandomLossProb = p
}

func (c *refConn) SetExtraDelayMS(ms float64) {
	if ms < 0 || math.IsNaN(ms) {
		ms = 0
	}
	c.extraDelayMS = ms
}

func (c *refConn) rttSample() float64 {
	jitter := c.r.Norm(0, c.p.JitterMS)
	if jitter < 0 {
		jitter = -jitter
	}
	queueDelay := 0.0
	if rate := c.rateBytesPerMS(); rate > 0 {
		queueDelay = c.queuedBytes / rate
	}
	return c.p.BaseRTTms + c.extraDelayMS + jitter + queueDelay
}

func (c *refConn) updateRTT(sample float64, acks int) {
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
	for i := 0; i < acks; i++ {
		c.rttvar = 0.75*c.rttvar + 0.25*math.Abs(c.srtt-sample)
		c.srtt = 0.875*c.srtt + 0.125*sample
	}
}

func (c *refConn) RTOms() float64 {
	rto := c.srtt + 4*c.rttvar
	if rto < 200 {
		rto = 200
	}
	return rto
}

func (c *refConn) Info() TCPInfo {
	return TCPInfo{
		AtMS:         c.clockMS,
		CWNDSegments: c.cwnd,
		SRTTms:       c.srtt,
		RTTVarMS:     c.rttvar,
		RetransTotal: c.retransTotal,
		MSS:          c.p.MSS,
	}
}

func (c *refConn) AdvanceIdle(ms float64) {
	if ms <= 0 {
		return
	}
	c.clockMS += ms
	drained := c.rateBytesPerMS() * ms
	c.queuedBytes = math.Max(0, c.queuedBytes-drained)
	if c.p.SlowStartAfterIdle && ms > c.RTOms() {
		c.cwnd = c.p.InitCwnd
	}
}

func (c *refConn) lossesInWindow(n int, windowBytes float64) int {
	lost := 0
	headroom := c.bdpBytes() + float64(c.p.BufferBytes)
	if c.p.Pacing {
		headroom += c.bdpBytes() + float64(c.p.BufferBytes)
	}
	if overflow := windowBytes - headroom; overflow > 0 {
		lost += int(math.Ceil(overflow / float64(c.p.MSS)))
	}
	if p := c.p.RandomLossProb; p > 0 {
		for i := 0; i < n-lost; i++ {
			if c.r.Bool(p) {
				lost++
			}
		}
	}
	if lost > n {
		lost = n
	}
	return lost
}

func (c *refConn) Transfer(size int64) TransferResult {
	if size <= 0 {
		return TransferResult{CwndEnd: c.cwnd, SRTTEnd: c.srtt}
	}
	res := TransferResult{}
	bytesLeft := float64(size)
	rate := c.rateBytesPerMS()

	for round := 0; bytesLeft > 0; round++ {
		windowBytes := float64(c.cwnd * c.p.MSS)
		sendBytes := math.Min(windowBytes, bytesLeft)
		nSegs := int(math.Ceil(sendBytes / float64(c.p.MSS)))

		c.queuedBytes = math.Max(0, windowBytes-c.bdpBytes())
		if c.queuedBytes > float64(c.p.BufferBytes) {
			c.queuedBytes = float64(c.p.BufferBytes)
		}

		rtt := c.rttSample()
		roundTime := rtt
		if sendBytes < windowBytes && rate > 0 {
			serial := sendBytes/rate + c.p.BaseRTTms/2
			roundTime = math.Min(rtt, math.Max(serial, 1))
		}

		lost := c.lossesInWindow(nSegs, sendBytes)
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

		switch {
		case lost >= nSegs && nSegs > 0:
			res.Timeouts++
			timeout := c.RTOms()
			c.clockMS += timeout
			res.TotalMS += timeout
			c.ssthresh = maxInt(c.cwnd/2, 2)
			c.cwnd = c.p.InitCwnd
		case lost > 0:
			c.ssthresh = maxInt(c.cwnd/2, 2)
			c.cwnd = c.ssthresh
			recovery := c.rttSample()
			c.updateRTT(recovery, 4)
			c.clockMS += recovery
			res.TotalMS += recovery
			res.Rounds++
		default:
			if sendBytes >= windowBytes {
				if c.cwnd < c.ssthresh {
					c.cwnd = minInt(c.cwnd*2, c.ssthresh)
				} else {
					c.cwnd++
				}
			}
		}
		if c.cwnd < 1 {
			c.cwnd = 1
		}
		maxW := int((c.bdpBytes()+float64(c.p.BufferBytes))/float64(c.p.MSS)) + c.p.InitCwnd
		if c.p.RcvWindowBytes > 0 {
			if rw := int(c.p.RcvWindowBytes / int64(c.p.MSS)); rw < maxW {
				maxW = rw
			}
		}
		if maxW < 2 {
			maxW = 2
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
	if rate > 0 {
		if floor := float64(size) / rate; res.LastByteMS < floor {
			res.LastByteMS = floor
			res.TotalMS = res.FirstRoundMS + floor
		}
	}
	return res
}
