// Package iodev applies lottery scheduling to I/O bandwidth, the
// generalization §6 sketches ("lottery scheduling also appears
// promising for scheduling communication resources" / "a lottery can
// be used to allocate resources wherever queueing is necessary for
// resource access", with the AN2 ATM switch as the motivating
// example): a device services one request at a time, and whenever it
// becomes free it holds a lottery among the streams that have queued
// requests, weighted by stream tickets. Streams therefore receive
// bandwidth in proportion to their funding, with the same
// probabilistic guarantees as the CPU lottery.
package iodev

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/lottery"
	"repro/internal/random"
	"repro/internal/sim"
)

// Device is a bandwidth-shared resource (disk, NIC, switch port)
// attached to a simulated kernel.
type Device struct {
	k    *kernel.Kernel
	name string
	src  random.Source
	// bytesPerSec is the device's service rate.
	bytesPerSec float64

	streams []*Stream
	busy    bool

	served       uint64
	bytesServed  uint64
	busyTime     sim.Duration
	lastBusyFrom sim.Time
}

// Stream is one client of the device: a FIFO of its own requests plus
// the ticket weight it competes with. Per-stream FIFO preserves
// request order within a client, as a virtual circuit would; the
// lottery decides only *which stream* goes next.
type Stream struct {
	dev     *Device
	name    string
	tickets float64

	pending []*request

	served      uint64
	bytesServed uint64
	waitTotal   sim.Duration
}

type request struct {
	bytes    int
	enqueued sim.Time
	wq       kernel.WaitQueue
	done     bool
}

// NewDevice creates a device with the given service rate.
func NewDevice(k *kernel.Kernel, name string, bytesPerSec float64, src random.Source) *Device {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("iodev: bytesPerSec must be positive, got %v", bytesPerSec))
	}
	if src == nil {
		panic("iodev: nil random source")
	}
	return &Device{k: k, name: name, src: src, bytesPerSec: bytesPerSec}
}

// NewStream registers a stream holding the given tickets.
func (d *Device) NewStream(name string, tickets float64) *Stream {
	if tickets < 0 {
		panic(fmt.Sprintf("iodev: negative tickets %v", tickets))
	}
	s := &Stream{dev: d, name: name, tickets: tickets}
	d.streams = append(d.streams, s)
	return s
}

// Served returns the total number of completed requests.
func (d *Device) Served() uint64 { return d.served }

// BytesServed returns the total bytes transferred.
func (d *Device) BytesServed() uint64 { return d.bytesServed }

// Utilization returns the fraction of time the device has been busy.
func (d *Device) Utilization() float64 {
	now := d.k.Now()
	if now == 0 {
		return 0
	}
	busy := d.busyTime
	if d.busy {
		busy += now.Sub(d.lastBusyFrom)
	}
	return float64(busy) / float64(now)
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Tickets returns the stream's ticket weight.
func (s *Stream) Tickets() float64 { return s.tickets }

// SetTickets changes the stream's weight; the next device lottery
// uses it immediately.
func (s *Stream) SetTickets(t float64) {
	if t < 0 {
		panic(fmt.Sprintf("iodev: negative tickets %v", t))
	}
	s.tickets = t
}

// Served returns the stream's completed request count.
func (s *Stream) Served() uint64 { return s.served }

// BytesServed returns the stream's transferred bytes.
func (s *Stream) BytesServed() uint64 { return s.bytesServed }

// MeanWait returns the stream's mean queueing delay (enqueue to start
// of service).
func (s *Stream) MeanWait() sim.Duration {
	if s.served == 0 {
		return 0
	}
	return s.waitTotal / sim.Duration(s.served)
}

// Submit enqueues a request without blocking — open-loop traffic, the
// buffered-cell model of the AN2 switch example. It may be called
// from thread bodies or engine events. Proportional bandwidth shares
// require queues that stay non-empty; a stream that only ever has one
// request in flight (strict request-reply) is limited by its own
// round-trip, not by the lottery.
func (s *Stream) Submit(bytes int) {
	if bytes <= 0 {
		panic(fmt.Sprintf("iodev: transfer of %d bytes", bytes))
	}
	r := &request{bytes: bytes, enqueued: s.dev.k.Now()}
	s.pending = append(s.pending, r)
	s.dev.kick()
}

// QueueDepth returns the number of requests waiting (not in service).
func (s *Stream) QueueDepth() int { return len(s.pending) }

// Transfer issues a request of the given size on the stream and
// blocks the calling thread until the device has transferred it.
// It must be called from a thread body.
func (s *Stream) Transfer(ctx *kernel.Ctx, bytes int) {
	if bytes <= 0 {
		panic(fmt.Sprintf("iodev: transfer of %d bytes", bytes))
	}
	r := &request{bytes: bytes, enqueued: s.dev.k.Now()}
	s.pending = append(s.pending, r)
	s.dev.kick()
	// The request may complete before we block (zero-length queue and
	// instant devices do not exist: service takes time, and the kick
	// only schedules events, so blocking here is race-free under the
	// simulator's strict alternation).
	if !r.done {
		ctx.Block(&r.wq)
	}
}

// TransferChunked transfers total bytes as a pipeline of chunk-sized
// requests, blocking until the last completes. Because requests
// within a stream are FIFO, waiting on the final chunk waits for all
// of them. The deep per-stream queue is what lets the device's
// per-request lottery share bandwidth proportionally even among
// strictly synchronous clients: a single whole-object Transfer keeps
// only one request outstanding, and the draw degenerates to
// alternation among whoever happens to be queued.
func (s *Stream) TransferChunked(ctx *kernel.Ctx, total, chunk int) {
	if total <= 0 || chunk <= 0 {
		panic(fmt.Sprintf("iodev: TransferChunked(%d, %d)", total, chunk))
	}
	for total > chunk {
		s.Submit(chunk)
		total -= chunk
	}
	s.Transfer(ctx, total)
}

// kick starts service if the device is idle and work is queued.
func (d *Device) kick() {
	if d.busy {
		return
	}
	s := d.drawStream()
	if s == nil {
		return
	}
	r := s.pending[0]
	s.pending = s.pending[1:]
	d.busy = true
	d.lastBusyFrom = d.k.Now()
	s.waitTotal += d.k.Now().Sub(r.enqueued)
	serviceTime := sim.Duration(float64(r.bytes) / d.bytesPerSec * float64(sim.Second))
	if serviceTime < 1 {
		serviceTime = 1
	}
	d.k.Engine().After(serviceTime, func() {
		d.busy = false
		d.busyTime += serviceTime
		d.served++
		d.bytesServed += uint64(r.bytes)
		s.served++
		s.bytesServed += uint64(r.bytes)
		r.done = true
		r.wq.WakeAll()
		d.kick()
	})
}

// drawStream holds the bandwidth lottery among streams with pending
// requests. Unfunded streams win only when no funded stream has work
// (same degradation rule as the CPU lottery).
func (d *Device) drawStream() *Stream {
	var pending []*Stream
	var weights []float64
	for _, s := range d.streams {
		if len(s.pending) > 0 {
			pending = append(pending, s)
			weights = append(weights, s.tickets)
		}
	}
	if i, ok := lottery.Draw(d.src, weights); ok {
		return pending[i]
	}
	if len(pending) == 0 {
		return nil
	}
	return pending[0]
}
