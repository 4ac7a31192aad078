package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/rt/audit"
	"repro/internal/rt/resource"
	"repro/internal/ticket"
)

// churn512: 512 clients under 16 tenants, driven by 8 closed-loop
// callers that each run SubmitReserve then Task.Wait on the client the
// seeded plan names, with seeded SetTickets and Leave+NewClient churn,
// an operator loop calling Snapshot and Registry.WriteTo every 100 ms,
// and lotteryd's default observability plus a resource ledger switched
// on. See README.md.
const (
	churnCallers    = 8
	churnWarmOps    = 60_000
	churnTraceEvery = 256
	operatorEvery   = 100 * time.Millisecond
	// churnRetries bounds re-submissions of one operation whose client
	// was replaced under it.
	churnRetries = 1000
)

// churnReserve is each task's resource demand; the pools are sized so
// far above it that no reserve ever waits or revokes.
var churnReserve = rt.Reserve{MemBytes: 4096, IOTokens: 1}

type churnRun struct {
	plan    *churnPlan
	d       *rt.Dispatcher
	reg     *metrics.Registry
	ledger  *resource.Ledger
	tenants [churnTenants]*rt.Tenant
	slots   [churnClients]atomic.Pointer[rt.Client]
	// replacing serializes replacements of one slot; slotGen counts the
	// clients a slot has had, under replacing.
	replacing [churnClients]sync.Mutex
	slotGen   [churnClients]uint32
	nextOp    atomic.Uint64
	windows   atomic.Int64 // audit windows closed
	drifted   atomic.Int64 // audit windows the drift detector flagged
	stop      atomic.Bool
	tr        *tracer
	// measuring is set for the measured window, the only one sampled.
	measuring atomic.Bool
}

// churnCaller is one closed-loop caller's state. fn is its task body;
// the caller has one task in flight at a time, so the body's writes
// are ordered before the caller's reads by Wait.
type churnCaller struct {
	run        *churnRun
	fn         func()
	runs       int64 // body executions of the current operation
	start, end int64 // body timestamps
	ops        int64 // operations completed
	retries    int64
	bodies     int64 // body executions, all operations
	waits      *sampler
	lats       *sampler
	res        result // failures only
}

func newChurnRun(seed uint64, plan *churnPlan) (*churnRun, error) {
	r := &churnRun{plan: plan, reg: metrics.NewRegistry()}
	aud := audit.New(audit.Config{
		WindowDraws: 4096,
		Metrics:     r.reg,
		OnWindow: func(rep audit.Report) {
			r.windows.Add(1)
			if rep.Drifted {
				r.drifted.Add(1)
			}
		},
	})
	r.ledger = resource.NewLedger(resource.Config{
		MemCapacity: 1 << 40,
		IORate:      1e12,
		IOBurst:     1 << 40,
		Seed:        uint32(seed),
		Metrics:     r.reg,
	})
	r.d = rt.New(rt.Config{
		Seed:      uint32(seed),
		Metrics:   r.reg,
		Observer:  rt.NewEventRecorder(2048),
		Audit:     aud,
		Resources: r.ledger,
	})
	for j := range r.tenants {
		t, err := r.d.NewTenant(fmt.Sprintf("t%02d", j), ticket.Amount(plan.tenantFunding[j]))
		if err != nil {
			r.d.Close()
			return nil, fmt.Errorf("churn512: register tenant: %w", err)
		}
		r.tenants[j] = t
	}
	for s := range r.slots {
		c, err := r.newClient(s, plan.tickets[s])
		if err != nil {
			r.d.Close()
			return nil, err
		}
		r.slots[s].Store(c)
	}
	r.drive(churnWarmOps)
	return r, nil
}

// newClient registers slot's next client. A slot's clients alternate
// between two names: a successor is live beside its predecessor until
// that one leaves, and rt shares metric series between live clients of
// one name, but rt also never deletes a departed client's series, so
// fresh names would grow the registry (and WriteTo) with every
// replacement.
func (r *churnRun) newClient(slot int, tickets uint32) (*rt.Client, error) {
	t := r.tenants[slot/churnClientsPerTenant]
	gen := r.slotGen[slot] % 2
	r.slotGen[slot]++
	c, err := t.NewClient(fmt.Sprintf("%s.c%03d.g%d", t.Name(), slot, gen), ticket.Amount(tickets))
	if err != nil {
		return nil, fmt.Errorf("churn512: register client: %w", err)
	}
	return c, nil
}

// drive runs the callers until ops operations have been taken (or,
// with ops 0, until stop) and returns them once all have returned.
func (r *churnRun) drive(ops uint64) []*churnCaller {
	callers := make([]*churnCaller, churnCallers)
	limit := r.nextOp.Load() + ops
	var wg sync.WaitGroup
	for i := range callers {
		cc := &churnCaller{run: r, waits: newSampler(1 << 17), lats: newSampler(1 << 17)}
		cc.fn = func() {
			cc.start = clock()
			cc.runs++
			cc.end = clock()
		}
		callers[i] = cc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !r.stop.Load() {
				n := r.nextOp.Add(1) - 1
				if ops > 0 && n >= limit {
					return
				}
				cc.op(n)
			}
		}()
	}
	wg.Wait()
	return callers
}

// op runs planned operation i: its churn action, if any, then one task
// submitted to the planned client and waited for.
func (cc *churnCaller) op(i uint64) {
	r := cc.run
	p := r.plan.ops[i%churnPlanLen]
	switch p.act {
	case actSetTickets:
		t := clock()
		err := r.slots[p.actSlot].Load().SetTickets(ticket.Amount(p.tickets))
		if r.measuring.Load() {
			r.tr.add(0, i, "ticket.set_tickets", t, clock(), 1)
		}
		// A client being replaced concurrently may already be torn down;
		// its successor keeps the planned population.
		if err != nil && !errors.Is(err, rt.ErrClientLeft) {
			cc.res.fail("op %d: SetTickets: %v", i, err)
		}
	case actReplace:
		cc.replace(i, int(p.actSlot), p.tickets)
	}

	for attempt := 0; attempt < churnRetries; attempt++ {
		c := r.slots[p.slot].Load()
		cc.runs = 0
		t0 := clock()
		task, err := c.SubmitReserve(context.Background(), cc.fn, churnReserve)
		t1 := clock()
		if errors.Is(err, rt.ErrClientLeft) {
			// Replaced between the load and the submit: resubmit to the
			// successor once it is published.
			cc.retries++
			runtime.Gosched()
			continue
		}
		if err != nil {
			cc.res.fail("op %d: SubmitReserve: %v", i, err)
			return
		}
		err = task.Wait()
		t2 := clock()
		if errors.Is(err, rt.ErrClientLeft) {
			// Accepted into the submit ring just as the client left: the
			// task completes without running (rt's documented race).
			if cc.runs != 0 {
				cc.res.fail("op %d: task reported ErrClientLeft after running %d times", i, cc.runs)
				return
			}
			cc.retries++
			continue
		}
		cc.bodies += cc.runs
		if err != nil || cc.runs != 1 {
			cc.res.fail("op %d: Wait = %v after %d body runs, want nil after exactly 1", i, err, cc.runs)
			return
		}
		cc.ops++
		if r.measuring.Load() {
			cc.waits.add(cc.start - t0)
			cc.lats.add(t2 - t0)
			if r.tr != nil && i%churnTraceEvery == 0 {
				root := r.tr.add(0, i, "task", t0, t2, 1)
				r.tr.add(root, i, "submit", t0, t1, 1)
				r.tr.add(root, i, "queue", t1, cc.start, 1)
				r.tr.add(root, i, "run", cc.start, cc.end, 1)
				r.tr.add(root, i, "finish", cc.end, t2, 1)
			}
		}
		return
	}
	cc.res.fail("op %d: client slot %d still retired after %d attempts", i, p.slot, churnRetries)
}

// replace retires slot's client and registers a fresh one in the same
// tenant. The successor is published before the old client leaves, so
// callers racing the swap resubmit to it.
func (cc *churnCaller) replace(i uint64, slot int, tickets uint32) {
	r := cc.run
	r.replacing[slot].Lock()
	defer r.replacing[slot].Unlock()
	old := r.slots[slot].Load()
	t := clock()
	nc, err := r.newClient(slot, tickets)
	t1 := clock()
	if err != nil {
		cc.res.fail("op %d: %v", i, err)
		return
	}
	r.slots[slot].Store(nc)
	old.Leave()
	if r.measuring.Load() {
		r.tr.add(0, i, "rt.join", t, t1, 1)
		r.tr.add(0, i, "rt.leave", t1, clock(), 1)
	}
}

// operate is the operator loop: Snapshot and a metrics scrape every
// operatorEvery until done is closed.
func (r *churnRun) operate(done <-chan struct{}) {
	tick := time.NewTicker(operatorEvery)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		t := clock()
		r.d.Snapshot()
		t1 := clock()
		_, err := r.reg.WriteTo(io.Discard)
		r.tr.add(0, 0, "rt.snapshot", t, t1, 1)
		r.tr.add(0, 0, "metrics.writeto", t1, clock(), 1)
		if err != nil {
			panic(fmt.Sprintf("metrics.Registry.WriteTo to io.Discard: %v", err)) // Discard cannot fail
		}
	}
}

// throttles sums the ledger's per-tenant I/O throttle counts.
func throttles(s resource.Snapshot) uint64 {
	var n uint64
	for _, t := range s.Tenants {
		n += t.IOThrottled
	}
	return n
}

func runChurn(cfg config) (*result, error) {
	res := newResult()
	plan := newChurnPlan(cfg.seed)
	var setups []time.Duration
	var figs []figures
	var cnt counters
	for i := 0; i < sessions; i++ {
		t := time.Now()
		r, err := newChurnRun(cfg.seed, plan)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
		r.tr = cfg.tr
		figs = append(figs, r.measure(cfg, i, res, &cnt))
		r.d.Close()
	}
	res.sessionMedians(setups, figs)
	cnt.fill(res.layer)
	if cfg.tr != nil {
		calibrate(cfg.tr, cfg.seed, plan.baseWeights())
	}
	return res, nil
}

// measure drives the callers and the operator loop for one session's
// share of the measured time, then runs the end-of-session checks.
func (r *churnRun) measure(cfg config, session int, res *result, cnt *counters) figures {
	snap0 := r.d.Snapshot()
	windows0, drifted0 := r.windows.Load(), r.drifted.Load()
	done := make(chan struct{})
	var opWG sync.WaitGroup
	opWG.Add(1)
	go func() {
		defer opWG.Done()
		r.operate(done)
	}()
	r.measuring.Store(true)
	w := window{start: readProc()}
	timer := time.AfterFunc(cfg.sessionTime(), func() { r.stop.Store(true) })
	defer timer.Stop()
	callers := r.drive(0)
	w.end = readProc()
	r.measuring.Store(false)
	close(done)
	opWG.Wait()
	snap1 := r.d.Snapshot()

	var waits, lats []int64
	var bodies, retries int64
	for _, cc := range callers {
		w.tasks += cc.ops
		bodies += cc.bodies
		retries += cc.retries
		res.attempted += cc.ops + cc.res.failed
		res.failed += cc.res.failed
		res.problems = append(res.problems, cc.res.problems...)
		waits = append(waits, cc.waits.buf...)
		lats = append(lats, cc.lats.buf...)
	}
	res.attempted += 3 // the three end-of-session checks below
	if completed := int64(snap1.Completed - snap0.Completed); completed != bodies || bodies != w.tasks {
		res.fail("exactly-once: %d operations, %d body runs, dispatcher completed %d", w.tasks, bodies, completed)
	}
	if err := rt.CheckInvariants(r.d); err != nil {
		res.fail("rt.CheckInvariants: %v", err)
	}
	rs0, rs1 := snap0.Resources, snap1.Resources
	reclaims, throttled := rs1.Reclaims-rs0.Reclaims, throttles(*rs1)-throttles(*rs0)
	if reclaims != 0 || throttled != 0 {
		res.fail("resource ledger left its fast path: %d reclaims, %d throttles", reclaims, throttled)
	}

	f := figures{}
	w.put(f)
	res.printf("session %d: %.3fs, %d operations, %d resubmits after a client was replaced",
		session, w.seconds(), w.tasks, retries)
	res.timing(f, session, "wait", waits)
	res.timing(f, session, "latency", lats)
	cnt.addWindow(w)
	cnt.dispatched += snap1.Dispatched - snap0.Dispatched
	cnt.rebuilds += snap1.SnapshotRebuilds - snap0.SnapshotRebuilds
	cnt.ringFull += snap1.RingFull - snap0.RingFull
	cnt.windows += float64(r.windows.Load() - windows0)
	cnt.drifted += float64(r.drifted.Load() - drifted0)
	cnt.reclaims += reclaims
	cnt.throttles += throttled
	return f
}

// baseWeights values the plan's initial clients in base units: tenant
// funding split by ticket amount inside the tenant.
func (p *churnPlan) baseWeights() []float64 {
	w := make([]float64, churnClients)
	for j := 0; j < churnTenants; j++ {
		var sum float64
		for s := j * churnClientsPerTenant; s < (j+1)*churnClientsPerTenant; s++ {
			sum += float64(p.tickets[s])
		}
		for s := j * churnClientsPerTenant; s < (j+1)*churnClientsPerTenant; s++ {
			w[s] = float64(p.tenantFunding[j]) * float64(p.tickets[s]) / sum
		}
	}
	return w
}
