package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/rt"
	"repro/internal/ticket"
)

// saturate8: eight clients holding 100, 200, … 800 tickets, each kept
// backlogged by one submitter goroutine with a fixed window of no-op
// SubmitDetached tasks in flight, refilled as tasks start. Default
// rt.Config, nothing observing. See README.md.
const (
	satClients = 8
	// satWindowPerTicket sizes each client's window of tasks in flight
	// (submitted, not yet started) in proportion to its tickets, so
	// every queue holds the same time's worth of work: ~170 ms at ~1M
	// tasks/s. The submitter shares two CPUs with two busy workers and
	// is sometimes off them for tens of milliseconds. A flat 900-task
	// window let the richest clients' queues run dry then, and the
	// poorer clients won draws beyond their share (|z| up to 62); at 12
	// per ticket (~40 ms) windows still fell below an eighth a few times
	// a run and |z| reached 7; at 48 none did in five runs. Each
	// client's queue capacity is set to its window, so submits never
	// block.
	satWindowPerTicket = 48
	satWarmTasks       = 300_000
	// satTraceEvery: a traced run records spans for one task in this
	// many per client.
	satTraceEvery = 512
	// satSigmas is the binomial acceptance bound on each client's
	// dispatch count, in standard deviations. At 4σ one client of one
	// session in about sixty was measured at z = 4.1: the dispatcher's
	// counts are slightly wider than binomial, not biased.
	satSigmas = 5.0
)

// satSlot carries one task's timestamps from the submitter to the
// task body and back.
type satSlot struct {
	submit    int64 // before the submit call (submitter)
	submitted int64 // after the submit call, traced tasks only (submitter)
	end       int64 // body end (body), published by start
	start     atomic.Int64
}

type satClient struct {
	c       *rt.Client
	tickets int
	window  int64
	next    uint64 // tasks submitted (submitter only)
	// slots are the timestamp slots, reused round-robin. Twice the
	// window: a slot is reused only after its task started, and tasks
	// of one client start almost in submission order.
	slots    []satSlot
	fns      []func() // fns[k] is the task body bound to slots[k]
	_        [64]byte
	inflight atomic.Int64 // submitted, not yet started
	_        [64]byte
}

// started returns the client's started-task count (submitter only).
func (cl *satClient) started() int64 { return int64(cl.next) - cl.inflight.Load() }

type satRun struct {
	d       *rt.Dispatcher
	clients [satClients]*satClient
	stop    atomic.Bool
	// Samples are taken only for tasks submitted at or after from.
	from       int64
	waits      *sampler
	lats       *sampler
	tr         *tracer
	submitErrs int64
	firstErr   error
}

// newSatRun builds the dispatcher and clients and warms them up.
func newSatRun(seed uint64) (*satRun, error) {
	s := &satRun{
		d:     rt.New(rt.Config{Seed: uint32(seed)}),
		from:  math.MaxInt64,
		waits: newSampler(1 << 20),
		lats:  newSampler(1 << 20),
	}
	for i := range s.clients {
		tickets := 100 * (i + 1)
		window := satWindowPerTicket * tickets
		c, err := s.d.NewClient(fmt.Sprintf("c%d", tickets), ticket.Amount(tickets), rt.WithQueueCap(window))
		if err != nil {
			s.d.Close()
			return nil, fmt.Errorf("saturate8: register client: %w", err)
		}
		cl := &satClient{c: c, tickets: tickets, window: int64(window),
			slots: make([]satSlot, 2*window), fns: make([]func(), 2*window)}
		for k := range cl.fns {
			sl := &cl.slots[k]
			cl.fns[k] = func() {
				start := clock()
				sl.end = clock()
				sl.start.Store(start)
				cl.inflight.Add(-1)
			}
		}
		s.clients[i] = cl
	}
	s.pump(func() bool { return s.d.Dispatched() >= satWarmTasks })
	return s, nil
}

// pump is the submitter: it tops every client up to its window of
// tasks in flight until done reports true, yielding when all windows
// are full.
func (s *satRun) pump(done func() bool) {
	for !done() {
		progressed := false
		for _, cl := range s.clients {
			nslots := uint64(len(cl.slots))
			for cl.inflight.Load() < cl.window {
				k := cl.next % nslots
				sl := &cl.slots[k]
				if cl.next >= nslots {
					start := sl.start.Load()
					if start == 0 {
						break // the slot's previous task has not started yet
					}
					s.retire(cl, cl.next-nslots, sl, start)
					sl.start.Store(0)
				}
				sl.submit = clock()
				cl.inflight.Add(1)
				if err := cl.c.SubmitDetached(cl.fns[k]); err != nil {
					cl.inflight.Add(-1)
					s.submitErrs++
					if s.firstErr == nil {
						s.firstErr = err
					}
					break
				}
				if s.tr != nil && cl.next%satTraceEvery == 0 {
					sl.submitted = clock()
				}
				cl.next++
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched()
		}
	}
}

// retire samples a started task's timestamps before its slot is reused.
func (s *satRun) retire(cl *satClient, seq uint64, sl *satSlot, start int64) {
	if sl.submit < s.from {
		return
	}
	s.waits.add(start - sl.submit)
	s.lats.add(sl.end - sl.submit)
	if s.tr != nil && seq%satTraceEvery == 0 {
		req := uint64(cl.tickets)<<40 | seq
		root := s.tr.add(0, req, "task", sl.submit, sl.end, 1)
		s.tr.add(root, req, "submit", sl.submit, sl.submitted, 1)
		s.tr.add(root, req, "queue", sl.submitted, start, 1)
		s.tr.add(root, req, "run", start, sl.end, 1)
	}
}

func runSaturate(cfg config) (*result, error) {
	res := newResult()
	var setups []time.Duration
	var figs []figures
	var cnt counters
	for i := 0; i < sessions; i++ {
		t := time.Now()
		s, err := newSatRun(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
		s.tr = cfg.tr
		figs = append(figs, s.measure(cfg, i, res, &cnt))
		s.d.Close()
	}
	res.sessionMedians(setups, figs)
	cnt.fill(res.layer)
	if cfg.tr != nil {
		weights := make([]float64, satClients)
		for i := range weights {
			weights[i] = float64(100 * (i + 1))
		}
		calibrate(cfg.tr, cfg.seed, weights)
	}
	return res, nil
}

// measure runs the submitter for one session's share of the measured
// time and checks the clients' shares.
func (s *satRun) measure(cfg config, session int, res *result, cnt *counters) figures {
	var before [satClients]int64
	snap0 := s.d.Snapshot()
	w := window{start: readProc()}
	for i, cl := range s.clients {
		before[i] = cl.started()
	}
	s.from = w.start.at
	timer := time.AfterFunc(cfg.sessionTime(), func() { s.stop.Store(true) })
	defer timer.Stop()
	submitted0 := s.totalSubmitted()
	s.pump(s.stop.Load)
	var counts [satClients]int64
	for i, cl := range s.clients {
		counts[i] = cl.started() - before[i]
		w.tasks += counts[i]
	}
	w.end = readProc()
	snap1 := s.d.Snapshot()

	res.attempted += int64(s.totalSubmitted()-submitted0) + s.submitErrs
	if s.submitErrs > 0 {
		res.failed += s.submitErrs
		res.problems = append(res.problems, fmt.Sprintf("%d submits failed, first: %v", s.submitErrs, s.firstErr))
	}
	checkBinomial(res, s.clients[:], counts[:], w.tasks)

	f := figures{}
	w.put(f)
	res.printf("session %d: %.3fs, %d tasks started", session, w.seconds(), w.tasks)
	res.timing(f, session, "wait", s.waits.buf)
	res.timing(f, session, "latency", s.lats.buf)
	cnt.addWindow(w)
	cnt.dispatched += snap1.Dispatched - snap0.Dispatched
	cnt.rebuilds += snap1.SnapshotRebuilds - snap0.SnapshotRebuilds
	cnt.ringFull += snap1.RingFull - snap0.RingFull
	return f
}

func (s *satRun) totalSubmitted() uint64 {
	var n uint64
	for _, cl := range s.clients {
		n += cl.next
	}
	return n
}

// checkBinomial is the paper's proportional-share check (§2): over n
// lotteries a client holding share p of the tickets wins np times on
// average with variance np(1−p). Every client's dispatch count over the
// window, in which all eight stayed backlogged, must lie within
// satSigmas standard deviations of that; each one outside fails.
func checkBinomial(res *result, clients []*satClient, counts []int64, n int64) {
	total := 0
	for _, cl := range clients {
		total += cl.tickets
	}
	worst := 0.0
	for i, cl := range clients {
		p := float64(cl.tickets) / float64(total)
		mean := float64(n) * p
		sd := math.Sqrt(mean * (1 - p))
		z := (float64(counts[i]) - mean) / sd
		worst = math.Max(worst, math.Abs(z))
		if math.Abs(z) > satSigmas {
			res.fail("client %d tickets: %d dispatches, expected %.0f ± %.0f (z = %.1f)", cl.tickets, counts[i], mean, sd, z)
		}
	}
	res.attempted += int64(len(clients))
	res.printf("binomial share check: %d clients, worst |z| = %.2f (bound %.0f)", len(clients), worst, satSigmas)
}
