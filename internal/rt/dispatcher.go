package rt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lottery"
	"repro/internal/metrics"
	"repro/internal/random"
	"repro/internal/rt/audit"
	"repro/internal/rt/resource"
	"repro/internal/ticket"
)

// Sentinel errors returned by Submit and WaitOn.
var (
	// ErrClosed is returned once Close has been called.
	ErrClosed = errors.New("rt: dispatcher closed")
	// ErrQueueFull is returned by Submit on a Reject-policy client
	// whose queue is at capacity.
	ErrQueueFull = errors.New("rt: client queue full")
	// ErrClientLeft is returned by Submit after Client.Leave.
	ErrClientLeft = errors.New("rt: client left")
	// ErrNoResources is returned by SubmitReserve when the dispatcher
	// was built without a resource ledger (Config.Resources).
	ErrNoResources = errors.New("rt: dispatcher has no resource ledger")
	// ErrShed completes a queued task evicted by overload shedding
	// (Client.Shed): admission control decided the task will not run.
	// Callers should treat it as a retryable server-overloaded signal,
	// not a task failure.
	ErrShed = errors.New("rt: task shed under overload")
)

// Reserve declares a task's memory and I/O bandwidth demand; see
// resource.Reserve. Pass it to SubmitReserve on a dispatcher
// configured with a resource ledger.
type Reserve = resource.Reserve

// maxCompensation is the default cap on the compensation multiplier;
// same rationale as the simulator's scheduler (a task that completes
// in essentially zero time would otherwise earn a near-infinite
// boost).
const maxCompensation = 1000.0

// minElapsed floors the measured task duration used for compensation,
// bounding the multiplier even for tasks faster than the clock's
// resolution.
const minElapsed = time.Microsecond

// batchK is the maximum winners a worker draws per shard-lock
// acquisition. Batching only engages while the global backlog exceeds
// Workers×batchK queued tasks: below that, a worker could hoard tasks
// other idle workers should run (and a latency-sensitive light load
// gains nothing from batching anyway), so each acquisition draws one.
const batchK = 8

// snapCoolTrial is the warm-up length of the off-lock pre-draw
// hysteresis (shard.snapCool): after any batch arrives at a stale
// snapshot, the snapshot must be found fresh on this many consecutive
// batches before candidates are pre-drawn off-lock again. Tree churn
// faster than roughly one mutation per snapCoolTrial batches keeps
// draws on the locked tree.
const snapCoolTrial = 8

// passRenorm bounds the per-worker stride passes: when the leader's
// virtual time exceeds it, all passes are shifted down together, which
// preserves their differences (the only thing stride compares).
const passRenorm = 1e12

// Config parameterizes a Dispatcher. The zero value is usable: a
// worker per processor, a shard per processor, 1024-entry queues, and
// no compensation.
type Config struct {
	// Workers is the size of the worker pool; default GOMAXPROCS.
	Workers int
	// Shards is the number of run-queue shards clients are spread
	// across; default GOMAXPROCS. Each shard has its own mutex,
	// lottery tree, and PRNG stream, so clients on different shards
	// never contend. One shard reproduces the old single-lock
	// behavior exactly.
	Shards int
	// QueueCap is the default per-client queue bound; default 1024.
	// Individual clients can override it with WithQueueCap.
	QueueCap int
	// Seed seeds the dispatcher's Park-Miller lottery streams (one
	// independent stream per shard, split from this master seed);
	// default 1. Note that under real concurrency the *assignment*
	// of wins to wall-clock instants is not reproducible — only the
	// per-shard draw streams themselves are.
	Seed uint32
	// ExpectedSlice enables wall-clock compensation tickets (§3.4):
	// a task that completes in elapsed < ExpectedSlice boosts its
	// client's weight by ExpectedSlice/elapsed (capped) until the
	// client next wins. Zero disables compensation.
	ExpectedSlice time.Duration
	// MaxCompensation caps the compensation multiplier; default 1000.
	MaxCompensation float64
	// Observer, when non-nil, receives a structured Event for every
	// submit, dispatch, completion, cancellation, rejection, panic,
	// compensation grant, and ticket transfer. Nil disables emission
	// entirely (see Observer for the contract and cost).
	Observer Observer
	// Metrics, when non-nil, receives the dispatcher's metric
	// families (rt_* totals, per-client counters, per-shard weight
	// and depth gauges, and wait-latency histograms) for Prometheus
	// exposition. One registry serves one dispatcher. Nil disables
	// exporting; Snapshot percentiles work either way.
	Metrics *metrics.Registry
	// Tracer, when non-nil, samples per-task lifecycle spans: each
	// sampled task's submit→reserve→queue→dispatch→run progression is
	// stamped in place and emitted as one audit.SpanRecord when the
	// task finishes (always outside dispatcher locks, like Observer
	// events). Nil disables tracing entirely; the remaining cost is
	// one predictable branch per stamp site (BenchmarkTraceOverhead
	// pins it).
	Tracer *audit.Tracer
	// Audit, when non-nil, is the online fairness auditor: every
	// dispatch is counted into the winning tenant's windowed ledger
	// and the auditor's drift check is registered with AddCheck, so
	// CheckInvariants fails if observed shares leave their ticket
	// ratios for consecutive windows. Tenants are registered into it
	// with their base funding, mirroring the resource ledger.
	Audit *audit.Auditor
	// Resources, when non-nil, is the multi-resource ledger the
	// dispatcher's tenant currency jointly funds: tenants are
	// registered into it with their base funding as tickets, task
	// reserves (SubmitReserve) are acquired from it before enqueue and
	// released when the task finishes, and every completion accrues
	// its worker time to the tenant's CPU share. One ledger serves one
	// dispatcher. Nil disables resource accounting; SubmitReserve then
	// fails with ErrNoResources.
	Resources *resource.Ledger
}

// Dispatcher proportionally shares a bounded pool of worker
// goroutines among clients using lottery scheduling. Create one with
// New, add clients with NewClient or NewTenant, and stop it with
// Close. All methods are safe for concurrent use.
//
// Internally the dispatcher is sharded: clients are spread across
// Config.Shards run queues, each with its own mutex, lottery tree,
// and PRNG stream. Workers pick a shard by a per-worker stride walk
// over the shards' published total weights (the inter-shard level of
// a two-level lottery) and then draw winners inside the shard's own
// tree, so global proportional share is preserved while submits and
// draws on different shards proceed in parallel. The ticket currency
// graph itself stays global behind graphMu and is touched off the
// draw path only when it actually changes (see weightEpoch).
type Dispatcher struct {
	shards []*shard

	// graphMu guards the ticket system: the currency graph is not
	// concurrency-safe and even valuation mutates memo caches, so
	// every Issue/Retarget/SetActive/Value goes through here. Lock
	// order: a shard's mu may be held when taking graphMu, never the
	// reverse.
	graphMu sync.Mutex
	tickets *ticket.System
	base    *ticket.Currency

	// weightEpoch is bumped (under graphMu) by every ticket-graph
	// mutation; each shard lazily reweighs its tree when it notices
	// its own epoch is stale. This keeps the graph lock entirely off
	// the steady-state draw path.
	weightEpoch atomic.Uint64

	closed atomic.Bool

	// Idle-worker parking. Workers with nothing to do anywhere wait
	// on idleCond; submitters consult the idlersHint atomic first and
	// take idleMu only when somebody might actually be asleep, so a
	// saturated system never touches this lock.
	idleMu     sync.Mutex
	idleCond   *sync.Cond
	idlers     int // guarded by idleMu
	idlersHint atomic.Int32

	// totalPending counts queued tasks across all shards. It is the
	// park/exit condition for workers and the batching threshold.
	totalPending atomic.Int64

	nextShard atomic.Uint32 // round-robin placement cursor for new clients
	clientsN  atomic.Int64  // registered clients across all shards

	// taskPool recycles Task structs on the detached submit path
	// (SubmitDetached), where the caller keeps no handle and the
	// struct can be reused the moment the task finishes.
	taskPool sync.Pool

	slice    time.Duration
	maxComp  float64
	queueCap int // default per-client queue bound

	// obs and m are the observability hooks, fixed at construction.
	// obs is read on every event site with a nil fast path; m holds
	// the registry vec families clients bind their series from.
	obs Observer
	m   *rtMetrics

	// tracer and aud are the span/audit hooks (Config.Tracer and
	// Config.Audit), fixed at construction, both with nil fast paths.
	// Span stamps are plain field writes ordered by the shard mutex
	// hand-off; emission and audit window closes happen only outside
	// dispatcher locks.
	tracer *audit.Tracer
	aud    *audit.Auditor

	// ledger is the optional multi-resource ledger (Config.Resources),
	// fixed at construction. Lock order: ledger internals are below
	// every dispatcher lock — the ledger never calls into the
	// dispatcher, and reserve acquisition happens before any shard
	// lock is taken.
	ledger *resource.Ledger

	// predraw enables the off-lock candidate pre-draw from the RCU
	// snapshots. It requires GOMAXPROCS > 1 at construction: the
	// pre-draw's whole value is overlapping draw computation with other
	// workers' critical sections, and with one scheduler P there is no
	// overlap to buy — only extra work whose interleaving perturbs
	// windowed fairness on an oversubscribed box. Without it no
	// snapshot is ever read, so none is built either.
	predraw bool

	workers      int
	wg           sync.WaitGroup
	dispatched   atomic.Uint64
	completed    atomic.Uint64
	panicked     atomic.Uint64
	cancelled    atomic.Uint64 // tasks cancelled while queued or ringed
	shed         atomic.Uint64 // tasks evicted by overload shedding
	snapRebuilds atomic.Uint64 // lock-free draw snapshots rebuilt after a weight change
	ringFull     atomic.Uint64 // submit-ring publishes that fell back to the locked submit path

	// checks are external invariant checkers (Dispatcher.AddCheck) run
	// by CheckInvariants after its own sweep — e.g. the overload
	// controller's inflation-conservation check. Guarded by checksMu.
	checksMu sync.Mutex
	checks   []func() error
}

// New creates a dispatcher and starts its worker pool.
func New(cfg Config) *Dispatcher {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxCompensation <= 1 {
		cfg.MaxCompensation = maxCompensation
	}
	d := &Dispatcher{
		tickets:  ticket.NewSystem(),
		slice:    cfg.ExpectedSlice,
		maxComp:  cfg.MaxCompensation,
		workers:  cfg.Workers,
		queueCap: cfg.QueueCap,
		obs:      cfg.Observer,
		tracer:   cfg.Tracer,
		aud:      cfg.Audit,
		ledger:   cfg.Resources,
		predraw:  runtime.GOMAXPROCS(0) > 1,
	}
	if d.ledger != nil && d.obs != nil {
		// Surface the ledger's enforcement as dispatcher events. The
		// hooks run outside every ledger lock (see resource.Ledger), so
		// the usual Observer contract holds.
		obs := d.obs
		d.ledger.OnReclaim(func(tenant string, bytes int64) {
			obs.Observe(Event{At: time.Now(), Kind: EventReclaim, Tenant: tenant, MemBytes: bytes})
		})
		d.ledger.OnThrottle(func(tenant string, tokens int64) {
			obs.Observe(Event{At: time.Now(), Kind: EventThrottle, Tenant: tenant, IOTokens: tokens})
		})
	}
	if d.aud != nil {
		// The auditor's drift detector rides the same invariant probe
		// as the overload controller's conservation check.
		d.AddCheck(d.aud.Check)
	}
	d.idleCond = sync.NewCond(&d.idleMu)
	d.taskPool.New = func() any { return new(Task) }
	d.base = d.tickets.Base()
	// One Park-Miller stream per shard plus one per worker, split from
	// the same master seed. Shard streams come first so a given
	// (seed, shards) pair draws the same per-shard sequences whatever
	// the worker count.
	rngs := random.NewSharded(cfg.Seed, cfg.Shards+cfg.Workers)
	d.shards = make([]*shard, cfg.Shards)
	for i := range d.shards {
		d.shards[i] = &shard{
			d:    d,
			id:   i,
			tree: lottery.NewTree[*Client](16),
			rng:  rngs.Shard(i),
		}
		d.shards[i].ring.init(ringSize)
	}
	if cfg.Metrics != nil {
		d.m = newRTMetrics(cfg.Metrics, d)
	}
	d.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go d.worker(i, rngs.Shard(cfg.Shards+i))
	}
	return d
}

// Workers returns the pool size.
func (d *Dispatcher) Workers() int { return d.workers }

// Shards returns the number of run-queue shards.
func (d *Dispatcher) Shards() int { return len(d.shards) }

// Pending returns the number of accepted but not yet dispatched tasks
// across all clients, including submissions still sitting in the
// lock-free submit rings — a handful of atomic loads, cheap enough
// for per-request overload probes (e.g. deriving a Retry-After hint
// on a 503 path).
func (d *Dispatcher) Pending() int { return int(d.pendingAll()) }

// pendingAll is queued work plus ring backlog: the park/exit
// condition. A task is counted from the moment its submit is accepted
// (ringPending is incremented before the ring publish) until a worker
// pops it, so a worker never parks or exits while accepted work
// exists anywhere.
func (d *Dispatcher) pendingAll() int64 {
	n := d.totalPending.Load()
	for _, sh := range d.shards {
		n += sh.ringPending.Load()
	}
	return n
}

// Dispatched returns the lifetime count of tasks handed to workers —
// one atomic load, so periodic callers (the overload controller's
// drain-rate estimator) can difference it without taking a Snapshot.
func (d *Dispatcher) Dispatched() uint64 { return d.dispatched.Load() }

// Ledger returns the multi-resource ledger the dispatcher was built
// with, or nil without Config.Resources. Callers use it for pressure
// probes (free memory against capacity); enforcement stays inside the
// dispatcher's own reserve/release paths.
func (d *Dispatcher) Ledger() *resource.Ledger { return d.ledger }

// AddCheck registers an external invariant checker that CheckInvariants
// runs (outside every dispatcher lock) after its own sweep — the hook
// layered subsystems use to put their conservation contracts under the
// same probe, e.g. the overload controller's inflation-conservation
// check. Checkers must be safe for concurrent use and must not assume
// any dispatcher lock is held.
func (d *Dispatcher) AddCheck(fn func() error) {
	if fn == nil {
		panic("rt: AddCheck with nil checker")
	}
	d.checksMu.Lock()
	d.checks = append(d.checks, fn)
	d.checksMu.Unlock()
}

// Close stops accepting new work, wakes blocked submitters with
// ErrClosed, drains every queued task, waits for in-flight tasks to
// finish, and returns. It is idempotent; concurrent calls all block
// until the drain completes.
func (d *Dispatcher) Close() { _ = d.CloseCtx(context.Background()) }

// CloseTimeout is CloseCtx bounded by a timeout.
func (d *Dispatcher) CloseTimeout(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return d.CloseCtx(ctx)
}

// CloseCtx is Close with a drain deadline: it stops accepting new
// work and drains queued tasks like Close, but if ctx is done before
// the backlog drains, the still-queued tasks are discarded (completed
// with ErrClosed without running) and only in-flight tasks are waited
// for — a running task is never interrupted. It returns nil after a
// full graceful drain and ctx.Err() if the backlog was cut short.
func (d *Dispatcher) CloseCtx(ctx context.Context) error {
	if d.closed.CompareAndSwap(false, true) {
		for _, sh := range d.shards {
			sh.mu.Lock()
			for _, c := range sh.clients {
				c.wakeWaitersLocked()
			}
			sh.mu.Unlock()
		}
		d.idleMu.Lock()
		d.idleCond.Broadcast()
		d.idleMu.Unlock()
	}
	if ctx.Done() == nil {
		d.wg.Wait()
		d.sweepStragglers()
		return nil
	}
	drained := make(chan struct{})
	go func() { d.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		d.sweepStragglers()
		return nil
	case <-ctx.Done():
	}
	d.failDropped(d.discardQueued())
	<-drained
	d.sweepStragglers()
	return ctx.Err()
}

// sweepStragglers discards submissions that raced Close: a publish to
// a submit ring can land after the last worker checked for work and
// exited, so the final sweep (after the pool is gone) is what
// guarantees every accepted task completes, with ErrClosed here. The
// loop covers a producer caught between its ringPending increment and
// the ring store — submitFast re-checks closed after the increment,
// so any message this loop waits for is already mid-publish and lands
// promptly.
func (d *Dispatcher) sweepStragglers() {
	for d.pendingAll() > 0 {
		d.failDropped(d.discardQueued())
		runtime.Gosched()
	}
}

// failDropped completes tasks discarded by a deadline-cut or
// straggler-sweeping Close, outside every lock.
func (d *Dispatcher) failDropped(dropped []*Task) {
	for _, t := range dropped {
		if d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventCancel, Client: t.client.name,
				Tenant: t.client.tenant.name, Err: ErrClosed.Error()})
		}
		t.finish(ErrClosed)
	}
}

// discardQueued empties every client queue after a drain deadline,
// returning the dropped tasks for completion outside the locks. The
// submit rings are drained first so ringed submissions share the
// queued tasks' fate instead of leaking. Teardown of left clients is
// skipped: the dispatcher is dying and the whole ticket system dies
// with it.
func (d *Dispatcher) discardQueued() []*Task {
	var dropped []*Task
	var acts []drainAction
	for _, sh := range d.shards {
		sh.mu.Lock()
		acts = append(acts, d.drainRingLocked(sh)...)
		for _, c := range sh.clients {
			n := c.pendingLocked()
			if n == 0 {
				continue
			}
			for _, t := range c.queue[c.head:] {
				atomic.StoreInt32(&t.state, taskDone)
				dropped = append(dropped, t)
			}
			c.depth.Add(int64(-n))
			c.mDepth.Add(float64(-n))
			c.queue = c.queue[:0]
			c.head = 0
			sh.pending -= n
			d.totalPending.Add(int64(-n))
			sh.treeRemove(c.item)
			c.inTree = false
			d.graphMu.Lock()
			c.holder.SetActive(false)
			d.weightEpoch.Add(1)
			d.graphMu.Unlock()
			c.wakeWaitersLocked()
		}
		sh.publishLocked()
		sh.mu.Unlock()
	}
	d.finishActions(acts)
	d.idleMu.Lock()
	d.idleCond.Broadcast()
	d.idleMu.Unlock()
	return dropped
}

// cancelQueued is the submission-context watcher: if the task is
// still queued, remove it, reclaim its slot, and complete it with the
// context's error. A task already running is left alone. A task still
// in a submit ring is claimed by CAS instead of removed — only the
// draining consumer may pop ring slots, so the message itself stays
// behind — but the watcher settles the ledger and completion right
// here: a drain may be arbitrarily far away (every worker busy), and
// cancellation must not wait for one. The drain discards the dead
// message when it eventually pops it (see placeLocked).
func (d *Dispatcher) cancelQueued(t *Task) {
	c := t.client
	if atomic.CompareAndSwapInt32(&t.state, taskRinged, taskCancelledRing) {
		sh := c.sh
		sh.mu.Lock()
		c.noteRingCancelLocked()
		sh.mu.Unlock()
		atomic.StoreInt32(&t.state, taskDone)
		// This goroutine IS the context watcher; clearing stop tells
		// finish it needs no disarming. Only attached submissions carry
		// a watcher while ringed (detached ones arm theirs at enqueue),
		// so finish never recycles the struct the ring still points at.
		t.stop.Store(nil)
		err := t.ctx.Err()
		if d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventCancel,
				Client: c.name, Tenant: c.tenant.name, Err: err.Error()})
		}
		t.finish(err)
		d.debugCheck()
		return
	}
	sh := c.sh
	sh.mu.Lock()
	if atomic.LoadInt32(&t.state) != taskQueued || !c.removeQueuedLocked(sh, t) {
		sh.mu.Unlock()
		return
	}
	atomic.StoreInt32(&t.state, taskDone)
	// This goroutine IS the context watcher; clearing stop tells
	// finish it needs no disarming (and that a detached struct is
	// safe to recycle — nothing else will touch it).
	t.stop.Store(nil)
	c.cancelledN++
	c.mCancelled.Inc()
	d.cancelled.Add(1)
	sh.publishLocked()
	sh.mu.Unlock()
	err := t.ctx.Err()
	if d.obs != nil {
		d.obs.Observe(Event{At: time.Now(), Kind: EventCancel,
			Client: c.name, Tenant: c.tenant.name, Err: err.Error()})
	}
	t.finish(err)
	d.debugCheck()
}

// drawn is one lottery winner pulled out of a shard critical section:
// everything a worker needs to run and settle the task without
// re-deriving state that may have changed since the draw.
type drawn struct {
	t    *Task
	c    *Client
	wait time.Duration
	seq  uint64
}

// drainAction is the out-of-lock work a ring drain leaves behind: a
// task to complete because it was cancelled while ringed or its
// client left.
type drainAction struct {
	t   *Task
	err error
}

// drainRingLocked empties sh's submit ring into its clients' queues.
// Callers hold sh.mu; dead submissions come back as drainActions for
// the caller to settle via finishActions once the lock is dropped.
//
// Ringed tasks are stamped enqueued without a clock read per task. A
// submit reads the clock (ringMsg.enq) only when it finds the ring
// empty, opening an episode, or when an observer needs the submit
// time. The drain stamps each message with the latest reading it has
// popped. Pops follow slot reservation order and every reading is
// taken before its own reservation, so a stamp is never later than
// the publish of a message popped after it: a task's wait counts its
// ring dwell, overstated by at most its lag behind the stamped
// message. A message popped before any stamped one in this drain (its
// episode opened in an earlier drain, or it overtook the opener's
// reservation) is stamped by one clock read at the drain, without its
// ring dwell.
func (d *Dispatcher) drainRingLocked(sh *shard) []drainAction {
	var acts []drainAction
	var since time.Time
	for {
		m, ok := sh.ring.pop()
		if !ok {
			return acts
		}
		if !m.enq.IsZero() {
			since = m.enq
		} else if since.IsZero() {
			since = time.Now()
		}
		sh.ringPending.Add(-1)
		if a, dead := d.placeLocked(sh, m, since); dead {
			acts = append(acts, a)
		}
	}
}

// placeLocked moves one popped ring message into its client's queue,
// stamping it enqueued at enq. The client is homed on sh and sh.mu is
// held. Returns a dead action (and true) instead when the submission
// was cancelled while ringed or its client has left; the caller
// completes it outside the lock.
func (d *Dispatcher) placeLocked(sh *shard, m ringMsg, enq time.Time) (drainAction, bool) {
	c := m.c
	t := m.t
	if t != nil {
		if !atomic.CompareAndSwapInt32(&t.state, taskRinged, taskQueued) {
			// The context watcher beat the drain to the task and has
			// already settled the ledger and completed it (cancelQueued's
			// ring branch); the popped message is just a husk.
			return drainAction{}, false
		}
	} else if m.ctx != nil && m.ctx.Err() != nil {
		// Detached cancellable submission whose context died in the
		// ring; it never had a watcher (those are registered at enqueue,
		// below), so the error is read directly.
		c.noteRingCancelLocked()
		t = d.taskPool.Get().(*Task)
		t.client, t.ctx, t.fn, t.detached, t.res, t.span = c, m.ctx, m.fn, true, m.res, m.span
		atomic.StoreInt32(&t.state, taskDone)
		return drainAction{t: t, err: m.ctx.Err()}, true
	}
	if c.left {
		// The client left (or was torn down) after the publish was
		// accepted; the submission completes with ErrClientLeft like an
		// Abandoned queue entry. It still counts as submitted — the
		// fast path already emitted its EventSubmit.
		c.submittedN++
		c.mSubmitted.Inc()
		c.depth.Add(-1)
		c.wakeWaitersLocked()
		if t == nil {
			t = d.taskPool.Get().(*Task)
			t.client, t.ctx, t.fn, t.detached, t.res, t.span = c, context.Background(), m.fn, true, m.res, m.span
		}
		atomic.StoreInt32(&t.state, taskDone)
		return drainAction{t: t, err: ErrClientLeft}, true
	}
	if t == nil {
		t = d.taskPool.Get().(*Task)
		t.client, t.fn, t.detached, t.res = c, m.fn, true, m.res
		t.ctx = context.Background()
		if m.ctx != nil {
			t.ctx = m.ctx
		}
		atomic.StoreInt32(&t.state, taskQueued)
	}
	t.enqueued = enq
	t.span = m.span
	c.pushLocked(t)
	c.submittedN++
	c.mSubmitted.Inc()
	c.mDepth.Add(1)
	sh.pending++
	d.totalPending.Add(1)
	if c.pendingLocked() == 1 {
		c.activateLocked(sh)
	}
	if t.detached && m.ctx != nil {
		tt := t
		stop := context.AfterFunc(m.ctx, func() { d.cancelQueued(tt) })
		tt.stop.Store(&stop)
	}
	return drainAction{}, false
}

// finishActions settles a drain's out-of-lock leftovers: dead
// submissions complete with an EventCancel, mirroring the queued
// cancel path. Must be called with no dispatcher lock held.
func (d *Dispatcher) finishActions(acts []drainAction) {
	for _, a := range acts {
		if d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventCancel, Client: a.t.client.name,
				Tenant: a.t.client.tenant.name, Err: a.err.Error()})
		}
		a.t.finish(a.err)
	}
	if len(acts) > 0 {
		d.debugCheck()
	}
}

// worker is one pool goroutine: pick a shard by stride over the
// published shard weights, win a batch of tasks by lottery inside it,
// run them with panic isolation, settle compensation, repeat. Exits
// when the dispatcher is closed and fully drained.
//
// The stride state (pass, eligible) is worker-local on purpose: each
// worker's draw sequence is independently weight-proportional, so the
// sum over workers is too, and shard selection needs no shared
// mutable state at all. rng is the worker's private Park-Miller stream
// for off-lock snapshot pre-draws.
func (d *Dispatcher) worker(id int, rng *random.PM) {
	defer d.wg.Done()
	ns := len(d.shards)
	pass := make([]float64, ns)
	wasElig := make([]bool, ns)
	elig := make([]bool, ns)
	rr := id % ns // stagger the zero-weight fallback start across workers
	var batch [batchK]drawn
	for {
		if d.closed.Load() && d.pendingAll() == 0 {
			return
		}
		si := d.pickShard(pass, elig, wasElig, &rr)
		if si < 0 {
			if d.pendingAll() > 0 {
				// The published per-shard hints lag the global count by
				// at most one in-flight critical section; yield and
				// rescan rather than park.
				runtime.Gosched()
				continue
			}
			d.park()
			continue
		}
		sh := d.shards[si]
		n, w := d.drawBatch(sh, rng, &batch)
		if n == 0 {
			continue
		}
		if w > 0 {
			pass[si] += float64(n) / w
			if pass[si] > passRenorm {
				lo := math.Inf(1)
				for _, p := range pass {
					if p < lo {
						lo = p
					}
				}
				for i := range pass {
					pass[i] -= lo
				}
			}
		}
		for i := 0; i < n; i++ {
			d.runDrawn(&batch[i], id)
			batch[i] = drawn{}
		}
	}
}

// pickShard chooses the shard this worker draws from next: a stride
// walk (smallest pass first, advanced by work/weight) over the shards
// that currently have pending work and either positive published
// weight or a ring backlog. A shard whose only work is still in its
// submit ring has no weight until someone drains it, and nothing else
// drains it while other shards keep every worker busy; counting it
// eligible makes the next visit drain the ring and enter the new
// clients into the shard's tree at the current virtual time. Stride
// rather than a second lottery keeps the inter-shard level
// deterministic per worker, so sharding adds no draw variance on top
// of the per-shard lotteries. Returns -1 with no eligible
// shard; if some shard has pending work but every one of them has
// zero weight, service degrades to round-robin over pending shards
// (mirroring the intra-shard zero-weight fallback).
func (d *Dispatcher) pickShard(pass []float64, elig, wasElig []bool, rr *int) int {
	ns := len(d.shards)
	if ns == 1 {
		if d.shards[0].hasWork() {
			return 0
		}
		return -1
	}
	anyPending := false
	vt := math.Inf(1)
	for i, sh := range d.shards {
		p := sh.hasWork()
		elig[i] = p && (sh.weightPub.Load() > 0 || sh.ringPending.Load() > 0)
		if p {
			anyPending = true
		}
		if elig[i] && wasElig[i] && pass[i] < vt {
			vt = pass[i]
		}
	}
	best := -1
	for i := range elig {
		if !elig[i] {
			continue
		}
		if !wasElig[i] && !math.IsInf(vt, 1) && pass[i] < vt {
			// A shard (re)joining the competition starts at the current
			// virtual time: it must not spend passes "saved up" while it
			// was idle monopolizing the workers now.
			pass[i] = vt
		}
		if best < 0 || pass[i] < pass[best] {
			best = i
		}
	}
	copy(wasElig, elig)
	if best >= 0 {
		return best
	}
	if !anyPending {
		return -1
	}
	for i := 0; i < ns; i++ {
		j := (*rr + i) % ns
		if d.shards[j].hasWork() {
			*rr = (j + 1) % ns
			return j
		}
	}
	return -1
}

// drawBatch holds the shard lock once and draws up to batchK winners
// (one, below the global batching threshold — see batchK), amortizing
// lock traffic and partial-sum updates across the batch. Dispatch
// counters and sequence numbers advance at draw time, inside the
// critical section, exactly as they did under the single lock.
//
// Under a deep backlog the winners themselves are chosen before the
// lock is taken: candidates are drawn from the shard's published
// snapshot with the worker's private PRNG, then re-validated against
// the tree generation under the lock (a candidate from a snapshot the
// tree has since diverged from is discarded and redrawn from the tree
// — stale snapshots can waste a draw, never miswin one). Pre-drawing
// engages only when it can pay: multiple scheduler Ps (Dispatcher.
// predraw), a backlog deep enough to batch, and a snapshot that has
// stayed warm through its hysteresis trial (shard.snapCool). The ring
// is drained inside the same lock hold, so a drain and its draws share
// one acquisition.
//
// The second return value is the shard's post-reweigh tree total —
// the weight the draws were actually made against — which the caller
// uses to advance its stride pass. Returning it from inside the
// critical section keeps the stride advance consistent with the draw
// it pays for; the published weightPub can lag a concurrent reweigh.
func (d *Dispatcher) drawBatch(sh *shard, rng *random.PM, batch *[batchK]drawn) (int, float64) {
	var cands [batchK]*Client
	ncand := 0
	var snapGen uint64
	// Candidates are pre-drawn only when the backlog is deep enough to
	// batch — the same threshold that sets k below — and the shard's
	// snapshot has been warm (found fresh at batch entry) for
	// snapCoolTrial consecutive batches. A deep, stable backlog is
	// where the snapshot pays: batchK tree descents move off-lock per
	// acquisition and almost every candidate validates. Under tree
	// churn — shallow queues emptying and refilling, reweighs — the
	// candidates would mostly be drawn for nothing and discarded, and
	// the off-lock timing they introduce measurably widens windowed
	// fairness in resource-coupled workloads, so churny shards stay on
	// the locked tree until the snapshot proves warm again (and
	// single-P processes skip pre-draws entirely; see predraw).
	if d.predraw && d.totalPending.Load() >= int64(d.workers*batchK) && sh.snapCool.Load() == 0 {
		if snap := sh.snap.Load(); snap != nil && snap.total > 0 {
			for ncand < batchK {
				cands[ncand] = snap.pick(rng)
				ncand++
			}
			snapGen = snap.gen
		}
	}
	sh.mu.Lock()
	acts := d.drainRingLocked(sh)
	if sh.pending == 0 {
		sh.publishLocked()
		sh.mu.Unlock()
		d.finishActions(acts)
		return 0, 0
	}
	sh.reweighLocked()
	if d.predraw {
		// Hysteresis bookkeeping (see snapCoolTrial): a stale arrival —
		// the tree mutated since the last batch rebuilt the snapshot —
		// restarts the warm-up trial; a fresh arrival advances it. The
		// check sits after the drain and reweigh so joins carried in by
		// the ring and epoch reweighs count as the churn they are.
		if sh.snapGen != sh.treeGen {
			sh.snapCool.Store(snapCoolTrial)
		} else if v := sh.snapCool.Load(); v > 0 {
			sh.snapCool.Store(v - 1)
		}
	}
	total := sh.tree.Total()
	k := 1
	if d.totalPending.Load() >= int64(d.workers*batchK) {
		k = batchK
	}
	n := 0
	now := time.Now()
	for n < k && sh.pending > 0 {
		var c *Client
		if n < ncand && snapGen == sh.treeGen {
			// Epoch re-validation: the snapshot's generation still equals
			// the tree's, so its membership and weights are the tree's —
			// the off-lock draw is exactly the draw the tree would have
			// made. Checked per winner: a pop that empties a queue
			// mutates the tree and invalidates the remaining candidates.
			c = cands[n]
		} else {
			var ok bool
			c, ok = sh.tree.Draw(sh.rng)
			if !ok {
				// Every pending client on the shard has zero funding (e.g.
				// all lent away): rotate round-robin so zero total weight
				// degrades to FIFO service, not livelock or starvation of
				// all but one client.
				c = sh.nextPendingLocked()
				if c == nil {
					break
				}
			}
		}
		t := c.popLocked(sh)
		if t.span != nil {
			// Plain field writes: the span is stamped in place, never
			// emitted, while the shard mutex is held (lockemit's rule).
			t.span.Draw = now
			t.span.Shard = sh.id
		}
		// Winning a dispatch consumes any compensation boost (§3.4:
		// the ticket lasts "until it next wins").
		if c.comp != 1 {
			c.comp = 1
			if c.inTree {
				sh.treeUpdate(c.item, c.weight())
			}
		}
		c.dispatchSeq++
		c.dispatchedN++
		d.dispatched.Add(1)
		batch[n] = drawn{t: t, c: c, wait: now.Sub(t.enqueued), seq: c.dispatchSeq}
		n++
	}
	if d.predraw && k == batchK && sh.snapGen != sh.treeGen {
		// Rebuild after the draws so this batch's own mutations (pops,
		// compensation consumption) are already folded in; the next
		// batch draws off-lock again. A weight-churn-heavy interval
		// degrades to locked tree draws, never to wrong ones. Only a
		// batch that could have pre-drawn rebuilds: below the batching
		// threshold no worker reads the snapshot, and shallow queues
		// would otherwise rebuild it on nearly every dispatch.
		sh.rebuildSnapLocked()
		d.snapRebuilds.Add(1)
	}
	sh.publishLocked()
	sh.mu.Unlock()
	d.finishActions(acts)
	return n, total
}

// runDrawn runs one winner outside all locks and settles its
// compensation under the client's shard lock. worker is the pool
// goroutine's id, recorded into sampled spans.
func (d *Dispatcher) runDrawn(dr *drawn, worker int) {
	c, t := dr.c, dr.t
	c.mDispatched.Inc()
	c.waitHist.Observe(dr.wait.Seconds())
	if d.aud != nil {
		// Outside all locks: the dispatch that crosses an audit window
		// boundary closes the window inline.
		d.aud.RecordDispatch(c.tenant.aud)
	}
	if d.obs != nil {
		d.obs.Observe(Event{At: time.Now(), Kind: EventDispatch,
			Client: c.name, Tenant: c.tenant.name, Wait: dr.wait})
	}

	// The run is timed only when something reads the time:
	// compensation, the ledger's CPU accrual, events or the span.
	timed := d.slice > 0 || d.ledger != nil || d.obs != nil || t.span != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	if t.span != nil {
		t.span.Worker = worker
		t.span.Run = start
	}
	err := runTask(t)
	var elapsed time.Duration
	if timed {
		elapsed = time.Since(start)
	}

	if d.ledger != nil {
		// Accrue the task's worker time to the tenant's CPU usage share
		// (dominant-resource accounting).
		c.tenant.res.NoteCPU(elapsed)
	}
	if err != nil {
		d.panicked.Add(1)
		c.panics.Add(1)
		c.mPanics.Inc()
		if d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventPanic,
				Client: c.name, Tenant: c.tenant.name, Elapsed: elapsed, Err: err.Error()})
		}
	}
	if d.slice > 0 {
		comp := 1.0
		if elapsed < d.slice {
			e := elapsed
			if e < minElapsed {
				e = minElapsed
			}
			comp = float64(d.slice) / float64(e)
			if comp > d.maxComp {
				comp = d.maxComp
			}
		}
		sh := c.sh
		sh.mu.Lock()
		// Only the client's most recent dispatch may settle: a slow
		// task finishing late must not overwrite (or resurrect) a
		// boost the client already consumed by winning again on
		// another worker. Weight is fundingVal×comp, so settling
		// never touches the ticket graph.
		settled := !c.torn && dr.seq == c.dispatchSeq
		if settled {
			c.comp = comp
			if c.inTree {
				sh.treeUpdate(c.item, c.weight())
				sh.publishLocked()
			}
		}
		sh.mu.Unlock()
		if settled && comp != 1 && d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventCompensate,
				Client: c.name, Tenant: c.tenant.name, Elapsed: elapsed, Factor: comp})
		}
	}
	d.completed.Add(1)
	if d.obs != nil {
		d.obs.Observe(Event{At: time.Now(), Kind: EventComplete,
			Client: c.name, Tenant: c.tenant.name, Elapsed: elapsed})
	}
	t.finish(err)
	d.debugCheck()
}

// park blocks the calling worker until work arrives or the dispatcher
// closes. The registration handshake with wake is race-free under
// sequential consistency: the worker publishes its intent (idlersHint)
// before re-checking totalPending, and submitters increment
// totalPending before reading idlersHint, so at least one side always
// sees the other.
func (d *Dispatcher) park() {
	d.idleMu.Lock()
	d.idlers++
	d.idlersHint.Store(int32(d.idlers))
	for d.pendingAll() == 0 && !d.closed.Load() {
		d.idleCond.Wait()
	}
	d.idlers--
	d.idlersHint.Store(int32(d.idlers))
	d.idleMu.Unlock()
}

// wake admits one parked worker after new work arrived. The common
// saturated case (no idle workers) is a single atomic load.
func (d *Dispatcher) wake() {
	if d.idlersHint.Load() == 0 {
		return
	}
	d.idleMu.Lock()
	d.idleCond.Signal()
	d.idleMu.Unlock()
}

// runTask executes the task body, converting a panic into an error so
// one misbehaving task cannot take down a pool worker.
func runTask(t *Task) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("rt: task panicked: %v", p)
		}
	}()
	t.fn()
	return nil
}

// recycle returns a detached task's struct to the dispatcher's pool.
func (d *Dispatcher) recycle(t *Task) {
	// Field-wise reset rather than a struct copy: the atomic stop
	// handle must not be copied, only cleared. recycle owns the struct
	// exclusively (finish's one-shot guarantee), so plain stores are
	// fine; Store keeps the atomic field's discipline uniform.
	t.client = nil
	t.ctx = nil
	t.fn = nil
	t.enqueued = time.Time{}
	t.done = nil
	t.err = nil
	atomic.StoreInt32(&t.state, taskQueued)
	t.detached = false
	t.stop.Store(nil)
	t.res = resource.Reserve{}
	t.span = nil
	d.taskPool.Put(t)
}
