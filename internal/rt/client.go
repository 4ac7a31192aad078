package rt

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/lottery"
	"repro/internal/metrics"
	"repro/internal/rt/audit"
	"repro/internal/ticket"
)

// OverflowPolicy selects what Submit does when a client's queue is at
// capacity.
type OverflowPolicy int

const (
	// Block makes Submit wait until the queue has room (or the
	// dispatcher closes / the client leaves / the context is done).
	Block OverflowPolicy = iota
	// Reject makes Submit fail fast with ErrQueueFull.
	Reject
)

// ClientOption configures a client at creation.
type ClientOption func(*Client)

// WithQueueCap overrides the dispatcher's default per-client queue
// bound.
func WithQueueCap(n int) ClientOption { return func(c *Client) { c.qcap = n } }

// WithOverflow sets the client's backpressure policy (default Block).
func WithOverflow(p OverflowPolicy) ClientOption { return func(c *Client) { c.policy = p } }

// Client is one competitor for the worker pool: a FIFO queue of tasks
// backed by ticket funding. Clients are created via Dispatcher.
// NewClient or Tenant.NewClient and retired with Leave. All methods
// are safe for concurrent use.
//
// Every client is homed on one dispatcher shard (sh) for its whole
// life; its queue, tree membership, compensation, and counters are
// guarded by that shard's mutex. Graph-derived state (fundingVal,
// left, torn) is written while holding both the shard mutex and
// graphMu, and may be read under either.
type Client struct {
	d       *Dispatcher
	tenant  *Tenant
	name    string
	holder  *ticket.Holder
	funding *ticket.Ticket // tenant currency -> holder
	policy  OverflowPolicy

	// sh is the client's home shard, assigned once at creation.
	sh *shard

	// waitCh, when non-nil, is closed to wake Block-policy submitters
	// waiting for queue room; each waiter round lazily allocates a
	// fresh channel. Guarded by the home shard's mutex.
	waitCh chan struct{}

	// depth counts the client's admitted, not-yet-dispatched tasks:
	// queued ones plus those still in a submit ring. It is the
	// capacity gate — both submit paths admit by incrementing and
	// checking against qcap, so the lock-free and locked paths share
	// one bound — decremented wherever a task leaves the queue (or
	// dies in the ring).
	depth atomic.Int64

	// gone mirrors left for the lock-free fast path, which must turn
	// submissions away without any lock. Set (before left) in Leave
	// and Abandon, never cleared.
	gone atomic.Bool

	// Queue: slice-backed FIFO with a head index. It resets to the
	// array's start when it empties, and pushLocked reclaims the
	// consumed head before it grows, so a client that never empties
	// still holds at most twice its peak depth.
	queue []*Task
	head  int
	qcap  int

	item   lottery.TreeItem // valid while inTree
	inTree bool
	comp   float64 // compensation multiplier (>= 1)

	// fundingVal caches holder.Value() in base units, refreshed under
	// graphMu whenever the client (re)enters the lottery or its shard
	// reweighs after a graph mutation. The client's lottery weight is
	// fundingVal×comp, so the steady-state draw/settle path never
	// takes the graph lock.
	fundingVal float64

	left bool // Leave called: no new submissions
	torn bool // funding destroyed, removed from dispatcher
	lent bool // funding currently transferred via WaitOn; guarded by graphMu

	// dispatchSeq counts dispatches handed to workers. Compensation
	// settlement is tagged with the sequence it was dispatched under
	// and only the most recent dispatch may settle, so a slow task
	// finishing late cannot overwrite (or resurrect) a boost the
	// client already consumed by winning again on another worker.
	dispatchSeq uint64

	// Stats. Counters written under the shard mutex are plain; panics
	// is atomic because workers record it outside the lock.
	submittedN  uint64
	rejectedN   uint64
	dispatchedN uint64
	cancelledN  uint64
	shedN       uint64
	panics      atomic.Uint64

	// Metric instruments, bound at creation (bindMetrics): registry
	// series when the dispatcher exports metrics, standalone
	// otherwise. All are atomic, so workers update them outside the
	// dispatcher locks. waitHist is the single source for wait-latency
	// quantiles, shared by Snapshot and /metrics scrapes.
	mSubmitted  *metrics.Counter
	mDispatched *metrics.Counter
	mRejected   *metrics.Counter
	mCancelled  *metrics.Counter
	mShed       *metrics.Counter
	mPanics     *metrics.Counter
	mDepth      *metrics.Gauge
	waitHist    *metrics.Histogram
}

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Tenant returns the tenant whose currency funds the client.
func (c *Client) Tenant() *Tenant { return c.tenant }

// Pending returns the client's current admitted (not yet dispatched)
// task count, including submissions still in its shard's submit ring
// — one atomic load. For a dispatcher-wide count use
// Dispatcher.Pending.
func (c *Client) Pending() int {
	return int(c.depth.Load())
}

// WaitHistogram returns the client's enqueue-to-dispatch wait-latency
// histogram — the same instrument Snapshot's WaitP50/WaitP99 and a
// /metrics scrape read. Controllers can difference BucketCounts
// snapshots between control ticks for a windowed quantile (see
// metrics.Histogram.QuantileFromCounts); the instrument itself is
// atomic, so sampling takes no dispatcher lock.
func (c *Client) WaitHistogram() *metrics.Histogram { return c.waitHist }

// weight is the client's lottery weight: its cached funding in base
// units scaled by its compensation multiplier. Called under the home
// shard's mutex.
func (c *Client) weight() float64 { return c.fundingVal * c.comp }

// Submit enqueues fn for dispatch and returns a handle to wait on.
// Under the Block policy it blocks while the queue is full; under
// Reject it fails fast with ErrQueueFull. It fails with ErrClosed
// after Close and ErrClientLeft after Leave.
func (c *Client) Submit(fn func()) (*Task, error) {
	if fn == nil {
		panic("rt: Submit with nil task")
	}
	return c.submit(context.Background(), fn, false, Reserve{})
}

// SubmitCtx is Submit bound to a context. Cancelling ctx (or its
// deadline passing, e.g. via context.WithTimeout for a per-task
// deadline) while the task is still queued removes it from the queue:
// the slot is reclaimed, a blocked submitter is admitted, the client
// leaves the lottery if its queue empties, and Wait returns ctx.Err().
// A task already handed to a worker is never interrupted; it runs to
// completion and Wait returns its own result. A Block-policy submit
// waiting for queue room also unblocks with ctx.Err() when ctx fires.
func (c *Client) SubmitCtx(ctx context.Context, fn func()) (*Task, error) {
	if ctx == nil {
		panic("rt: SubmitCtx with nil context")
	}
	if fn == nil {
		panic("rt: Submit with nil task")
	}
	return c.submit(ctx, fn, false, Reserve{})
}

// SubmitDetached enqueues fn fire-and-forget: no handle is returned,
// so completion cannot be awaited and a panic in fn is visible only
// through counters and events. In exchange the Task bookkeeping is
// recycled through a pool, making the steady-state submit path
// allocation-free — the right trade for high-rate workloads that
// track completion out of band.
func (c *Client) SubmitDetached(fn func()) error {
	if fn == nil {
		panic("rt: Submit with nil task")
	}
	_, err := c.submit(context.Background(), fn, true, Reserve{})
	return err
}

// SubmitReserve is SubmitCtx with a resource reserve: res.MemBytes of
// memory and res.IOTokens of I/O bandwidth are acquired from the
// dispatcher's resource ledger *before* the task is enqueued —
// admission is where backpressure belongs; workers never block on
// resources — and released when the task finishes, whether it
// completed, panicked, was cancelled while queued, or was discarded
// by Abandon or a deadline-cut Close. Acquisition may revoke memory
// from over-share tenants (§6.2 inverse lottery) and may block on I/O
// tokens until the tenant's lottery-weighted turn at the bucket; ctx
// cancellation while blocked rolls the reserve back and returns
// ctx.Err(). On a dispatcher without a ledger a nonzero reserve fails
// with ErrNoResources.
func (c *Client) SubmitReserve(ctx context.Context, fn func(), res Reserve) (*Task, error) {
	if ctx == nil {
		panic("rt: SubmitReserve with nil context")
	}
	if fn == nil {
		panic("rt: Submit with nil task")
	}
	return c.submit(ctx, fn, false, res)
}

// SubmitDetachedReserve is SubmitReserve fire-and-forget: the Task
// bookkeeping is pool-recycled exactly as with SubmitDetached, so a
// steady-state reserve-carrying submit stays allocation-free on the
// uncontended path (BenchmarkReserveRelease pins it).
func (c *Client) SubmitDetachedReserve(ctx context.Context, fn func(), res Reserve) error {
	if ctx == nil {
		panic("rt: SubmitReserve with nil context")
	}
	if fn == nil {
		panic("rt: Submit with nil task")
	}
	_, err := c.submit(ctx, fn, true, res)
	return err
}

func (c *Client) submit(ctx context.Context, fn func(), detached bool, res Reserve) (*Task, error) {
	d := c.d
	cancellable := ctx.Done() != nil
	if cancellable {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var span *audit.Span
	if d.tracer != nil {
		if span = d.tracer.Sample(); span != nil {
			span.Client = c.name
			span.Tenant = c.tenant.name
			span.Submit = time.Now()
			// Without a reserve the stage is zero-width, keeping the
			// stage chain gap-free either way.
			span.Reserve = span.Submit
		}
	}
	if !res.IsZero() {
		// Acquire before any dispatcher lock: memory reclamation and
		// I/O waits happen entirely inside the ledger, and a submitter
		// blocked on tokens holds no queue slot.
		if d.ledger == nil {
			if span != nil {
				d.tracer.Discard(span)
			}
			return nil, ErrNoResources
		}
		if err := d.ledger.Acquire(ctx, c.tenant.res, res); err != nil {
			if span != nil {
				d.tracer.Discard(span)
			}
			return nil, err
		}
		if span != nil {
			span.Reserve = time.Now()
		}
		if d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventReserve, Client: c.name,
				Tenant: c.tenant.name, MemBytes: res.MemBytes, IOTokens: res.IOTokens})
		}
	}
	if t, ok := c.submitFast(ctx, fn, detached, res, span, cancellable); ok {
		return t, nil
	}
	var t *Task
	if detached {
		t = d.taskPool.Get().(*Task)
	} else {
		t = &Task{done: make(chan struct{})}
	}
	t.client = c
	t.ctx = ctx
	t.fn = fn
	t.detached = detached
	atomic.StoreInt32(&t.state, taskQueued)
	t.res = res

	// failNow unwinds a rejected submission off-lock: the reserve,
	// span, and pooled struct roll back and any drain leftovers
	// settle. Callers publish and drop the shard mutex first — the
	// unlock stays inline at each exit so lock-path analysis (and
	// readers) can see it paired with the acquisition.
	failNow := func(acts []drainAction, fail error) (*Task, error) {
		d.finishActions(acts)
		if detached {
			d.recycle(t)
		}
		if span != nil {
			d.tracer.Discard(span)
		}
		if !res.IsZero() {
			d.ledger.Release(c.tenant.res, res)
		}
		return nil, fail
	}

	sh := c.sh
	sh.mu.Lock()
	// Drain the ring before enqueueing directly: messages published
	// before this submission must reach the queue first, keeping the
	// client's FIFO order across the two paths.
	acts := d.drainRingLocked(sh)
	for {
		if d.closed.Load() {
			sh.publishLocked()
			sh.mu.Unlock()
			return failNow(acts, ErrClosed)
		}
		if c.left {
			sh.publishLocked()
			sh.mu.Unlock()
			return failNow(acts, ErrClientLeft)
		}
		if c.depth.Add(1) <= int64(c.qcap) {
			break // slot reserved
		}
		c.depth.Add(-1)
		if c.policy == Reject {
			c.rejectedN++
			c.mRejected.Inc()
			sh.publishLocked()
			sh.mu.Unlock()
			if d.obs != nil {
				d.obs.Observe(Event{At: time.Now(), Kind: EventReject, Client: c.name, Tenant: c.tenant.name})
			}
			return failNow(acts, ErrQueueFull)
		}
		// Wait for room off the shard lock: waiters share a channel
		// whose close is the broadcast, so a waiter can also select on
		// its context. Fast-path submitters may steal the slot a pop
		// just freed, so the reservation is re-attempted under the lock
		// each round.
		ch := c.waitChLocked()
		// The drain above may have placed work (pending, tree); publish
		// before unlocking or workers scanning the stale hints would
		// never find it.
		sh.publishLocked()
		sh.mu.Unlock()
		d.finishActions(acts)
		if cancellable {
			select {
			case <-ch:
			case <-ctx.Done():
			}
			if err := ctx.Err(); err != nil {
				if detached {
					d.recycle(t)
				}
				if span != nil {
					d.tracer.Discard(span)
				}
				if !res.IsZero() {
					d.ledger.Release(c.tenant.res, res)
				}
				return nil, err
			}
		} else {
			<-ch
		}
		sh.mu.Lock()
		acts = d.drainRingLocked(sh)
	}
	enqueued := time.Now()
	t.enqueued = enqueued
	t.span = span
	c.pushLocked(t)
	c.submittedN++
	c.mSubmitted.Inc()
	c.mDepth.Add(1)
	sh.pending++
	d.totalPending.Add(1)
	if c.pendingLocked() == 1 {
		c.activateLocked(sh)
	}
	if cancellable {
		// Registered under the lock so t.stop is visible to whichever
		// worker (or cancel path) finishes the task.
		stop := context.AfterFunc(ctx, func() { d.cancelQueued(t) })
		t.stop.Store(&stop)
	}
	sh.publishLocked()
	sh.mu.Unlock()
	d.finishActions(acts)
	d.wake()
	if d.obs != nil {
		// Event fields come from locals and the client, never from t: a
		// detached task may already have run and been recycled by now.
		d.obs.Observe(Event{At: enqueued, Kind: EventSubmit, Client: c.name, Tenant: c.tenant.name})
	}
	if detached {
		// The pool owns the handle from here; callers get only an error.
		return nil, nil
	}
	return t, nil
}

// submitFast is the lock-free submit path: reserve a queue slot with
// one atomic add, publish the submission into the home shard's MPSC
// ring, and return — no shard mutex, and for detached submissions no
// allocation (the Task struct is taken from the dispatcher's pool at
// drain time). Returns ok=false to defer to the locked
// slow path: a full queue or ring (where the client's Block/Reject
// policy and its rejection bookkeeping live), a closing dispatcher,
// or a left client (which must report ErrClosed/ErrClientLeft with
// the proper rollbacks).
func (c *Client) submitFast(ctx context.Context, fn func(), detached bool, res Reserve, span *audit.Span, cancellable bool) (*Task, bool) {
	d := c.d
	if d.closed.Load() || c.gone.Load() {
		return nil, false
	}
	if c.depth.Add(1) > int64(c.qcap) {
		c.depth.Add(-1)
		return nil, false
	}
	var t *Task
	if !detached {
		t = &Task{done: make(chan struct{}), client: c, ctx: ctx, fn: fn, span: span, res: res}
		atomic.StoreInt32(&t.state, taskRinged)
	}
	m := ringMsg{c: c, fn: fn, t: t, span: span, res: res}
	if cancellable {
		m.ctx = ctx
	}
	sh := c.sh
	if sh.ringPending.Add(1) == 1 || d.obs != nil {
		// The publish opens a ring episode, or the submit event needs a
		// time: one clock read serves both and stamps the message (see
		// drainRingLocked).
		m.enq = time.Now()
	}
	if d.closed.Load() {
		// Close may already be past its sweep; rather than publish into
		// a dispatcher whose workers are gone, roll back and let the
		// slow path fail with ErrClosed. (The increment-before-check
		// ordering is what lets sweepStragglers trust pendingAll.)
		sh.ringPending.Add(-1)
		c.depth.Add(-1)
		return nil, false
	}
	if !sh.ring.publish(m) {
		sh.ringPending.Add(-1)
		c.depth.Add(-1)
		d.ringFull.Add(1)
		return nil, false
	}
	if t != nil && cancellable {
		// The watcher is armed after publish with no lock held; if ctx
		// is already done it fires right now on another goroutine and
		// races this store — which is why stop is atomic. The fired
		// watcher settles the task itself and never needs the handle.
		stop := context.AfterFunc(ctx, func() { d.cancelQueued(t) })
		t.stop.Store(&stop)
	}
	d.wake()
	if d.obs != nil {
		d.obs.Observe(Event{At: m.enq, Kind: EventSubmit, Client: c.name, Tenant: c.tenant.name})
	}
	if detached {
		return nil, true
	}
	return t, true
}

// noteRingCancelLocked records a submission cancelled while still in
// the submit ring: it counts as submitted (its EventSubmit already
// fired) and cancelled, mirroring the queued-cancel ledger so
// dispatched+cancelled+shed ≤ submitted keeps holding. Called under
// the home shard's mutex by the draining worker.
func (c *Client) noteRingCancelLocked() {
	c.submittedN++
	c.mSubmitted.Inc()
	c.cancelledN++
	c.mCancelled.Inc()
	c.d.cancelled.Add(1)
	c.depth.Add(-1)
	c.wakeWaitersLocked()
}

// activateLocked is the empty -> nonempty transition: the client
// starts competing. Activating the holder can change same-tenant
// siblings' weights too (even on other shards), so the epoch is
// bumped for everyone; this client's own weight is refreshed here so
// its tree entry is born current.
func (c *Client) activateLocked(sh *shard) {
	d := c.d
	d.graphMu.Lock()
	c.holder.SetActive(true)
	c.fundingVal = c.holder.Value()
	d.weightEpoch.Add(1)
	d.graphMu.Unlock()
	c.item = sh.treeAdd(c, c.weight())
	c.inTree = true
}

// pushLocked appends t to the FIFO. When the backing array is full it
// first reclaims the consumed head: if at least half the array is
// consumed, the live tail moves down to index 0; otherwise it moves to
// a fresh array of twice the live depth. Both keep appends amortized
// O(1) and cap the array at twice the client's peak depth, even for a
// client that stays backlogged and so never empties.
func (c *Client) pushLocked(t *Task) {
	if n := len(c.queue); n > 0 && n == cap(c.queue) {
		live := c.queue[c.head:]
		if len(live) > n/2 {
			c.queue = append(make([]*Task, 0, 2*len(live)), live...)
		} else {
			k := copy(c.queue, live)
			clear(c.queue[k:])
			c.queue = c.queue[:k]
		}
		c.head = 0
	}
	c.queue = append(c.queue, t)
}

// pendingLocked returns the queued (not yet dispatched) task count.
func (c *Client) pendingLocked() int { return len(c.queue) - c.head }

// waitChLocked returns the channel the next room-wait round blocks
// on, allocating it on first use.
func (c *Client) waitChLocked() chan struct{} {
	if c.waitCh == nil {
		c.waitCh = make(chan struct{})
	}
	return c.waitCh
}

// wakeWaitersLocked wakes every Block-policy submitter currently
// waiting for queue room (close is the broadcast). No-op when nobody
// waits, so hot paths pay nothing.
func (c *Client) wakeWaitersLocked() {
	if c.waitCh != nil {
		close(c.waitCh)
		c.waitCh = nil
	}
}

// popLocked removes the queue head and marks it running; the caller
// guarantees the queue is nonempty and holds sh (the client's home).
func (c *Client) popLocked(sh *shard) *Task {
	t := c.queue[c.head]
	c.queue[c.head] = nil
	c.head++
	if c.head == len(c.queue) {
		c.queue = c.queue[:0]
		c.head = 0
	}
	atomic.StoreInt32(&t.state, taskRunning)
	c.depth.Add(-1)
	c.mDepth.Add(-1)
	sh.pending--
	c.d.totalPending.Add(-1)
	c.wakeWaitersLocked()
	if c.pendingLocked() == 0 {
		c.emptiedLocked(sh)
	}
	return t
}

// removeQueuedLocked splices a still-queued task out of the FIFO,
// reclaiming its slot for a blocked submitter. Reports whether the
// task was found.
func (c *Client) removeQueuedLocked(sh *shard, t *Task) bool {
	for i := c.head; i < len(c.queue); i++ {
		if c.queue[i] != t {
			continue
		}
		copy(c.queue[i:], c.queue[i+1:])
		c.queue[len(c.queue)-1] = nil
		c.queue = c.queue[:len(c.queue)-1]
		if c.head == len(c.queue) {
			c.queue = c.queue[:0]
			c.head = 0
		}
		c.depth.Add(-1)
		c.mDepth.Add(-1)
		sh.pending--
		c.d.totalPending.Add(-1)
		c.wakeWaitersLocked()
		if c.pendingLocked() == 0 {
			c.emptiedLocked(sh)
		}
		return true
	}
	return false
}

// emptiedLocked is the nonempty -> empty transition: the client stops
// competing and, if it has left, is torn down.
func (c *Client) emptiedLocked(sh *shard) {
	d := c.d
	sh.treeRemove(c.item)
	c.inTree = false
	d.graphMu.Lock()
	c.holder.SetActive(false)
	d.weightEpoch.Add(1)
	d.graphMu.Unlock()
	if c.left && !c.torn {
		c.teardownLocked(sh)
	}
}

// SetTickets changes the client's funding amount inside its tenant's
// currency — ticket inflation/deflation (§3.2). It redistributes
// share among the tenant's own clients and leaves every other tenant
// untouched.
func (c *Client) SetTickets(amount ticket.Amount) error {
	d := c.d
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	if c.torn {
		return ErrClientLeft
	}
	if err := c.funding.SetAmount(amount); err != nil {
		return err
	}
	d.weightEpoch.Add(1)
	return nil
}

// Tickets returns the client's funding amount in its tenant currency.
func (c *Client) Tickets() ticket.Amount {
	c.d.graphMu.Lock()
	defer c.d.graphMu.Unlock()
	return c.funding.Amount()
}

// Leave retires the client: new submissions fail with ErrClientLeft,
// already-queued tasks still run, and once the queue drains the
// client's tickets (and, for a dedicated tenant, its currency) are
// destroyed. Blocked submitters are woken with ErrClientLeft.
func (c *Client) Leave() {
	d := c.d
	sh := c.sh
	sh.mu.Lock()
	// Drain the shard's ring first: submissions accepted before Leave
	// must reach the queue so they still run (fresh publishes racing
	// Leave may instead complete with ErrClientLeft at their drain).
	acts := d.drainRingLocked(sh)
	if !c.left {
		c.gone.Store(true)
		d.graphMu.Lock()
		c.left = true
		d.graphMu.Unlock()
		c.wakeWaitersLocked()
		if c.pendingLocked() == 0 && !c.torn {
			c.teardownLocked(sh)
		}
	}
	sh.publishLocked()
	sh.mu.Unlock()
	d.finishActions(acts)
}

// Abandon retires the client immediately: new submissions fail with
// ErrClientLeft and tasks still queued are completed with
// ErrClientLeft without running. A task already handed to a worker
// finishes normally. Use Leave to let queued work drain instead.
func (c *Client) Abandon() {
	d := c.d
	sh := c.sh
	sh.mu.Lock()
	// Ringed submissions drain into the queue first and are then
	// dropped with everything else below.
	acts := d.drainRingLocked(sh)
	var dropped []*Task
	if !c.torn {
		c.gone.Store(true)
		d.graphMu.Lock()
		c.left = true
		d.graphMu.Unlock()
		c.wakeWaitersLocked()
		if n := c.pendingLocked(); n > 0 {
			dropped = append(dropped, c.queue[c.head:]...)
			for _, t := range dropped {
				atomic.StoreInt32(&t.state, taskDone)
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
		}
		c.teardownLocked(sh)
	}
	sh.publishLocked()
	sh.mu.Unlock()
	d.finishActions(acts)
	for _, t := range dropped {
		if d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventCancel, Client: c.name,
				Tenant: c.tenant.name, Err: ErrClientLeft.Error()})
		}
		t.finish(ErrClientLeft)
	}
}

// Shed evicts up to n of the client's oldest queued tasks — overload
// load shedding (§4.2's inverse lottery decides *which client* sheds;
// this is the mechanism that sheds). Evicted tasks complete with
// ErrShed without running and an EventShed is emitted for each;
// oldest-first eviction drops the work most likely to have outlived
// its caller's patience while preserving FIFO order among survivors.
// Tasks already handed to a worker are untouched. Returns how many
// tasks were evicted; the client stays usable (unlike Abandon, which
// retires it).
func (c *Client) Shed(n int) int {
	if n <= 0 {
		return 0
	}
	d := c.d
	sh := c.sh
	sh.mu.Lock()
	// Drain first so ringed submissions are sheddable too: the
	// overload controller sizes its shed from Pending(), which counts
	// them.
	acts := d.drainRingLocked(sh)
	k := c.pendingLocked()
	if k > n {
		k = n
	}
	var dropped []*Task
	if k > 0 {
		dropped = make([]*Task, k)
		for i := 0; i < k; i++ {
			dropped[i] = c.queue[c.head+i]
			c.queue[c.head+i] = nil
			atomic.StoreInt32(&dropped[i].state, taskDone)
		}
		c.head += k
		if c.head == len(c.queue) {
			c.queue = c.queue[:0]
			c.head = 0
		}
		c.shedN += uint64(k)
		c.mShed.Add(uint64(k))
		d.shed.Add(uint64(k))
		c.depth.Add(int64(-k))
		c.mDepth.Add(float64(-k))
		sh.pending -= k
		d.totalPending.Add(int64(-k))
		c.wakeWaitersLocked()
		if c.pendingLocked() == 0 {
			c.emptiedLocked(sh)
		}
	}
	sh.publishLocked()
	sh.mu.Unlock()
	d.finishActions(acts)
	if k > 0 && d.aud != nil {
		// The auditor renormalizes shed tenants out of the window they
		// were evicted in, exactly as lotterysoak's judge waives them.
		d.aud.RecordShed(c.tenant.aud, uint64(k))
	}
	for _, t := range dropped {
		if d.obs != nil {
			d.obs.Observe(Event{At: time.Now(), Kind: EventShed, Client: c.name,
				Tenant: c.tenant.name, Err: ErrShed.Error()})
		}
		t.finish(ErrShed)
	}
	d.debugCheck()
	return k
}

// teardownLocked destroys the client's funding and removes it from
// its shard. Called with the queue empty, the client out of the tree,
// and sh (the home shard) locked.
func (c *Client) teardownLocked(sh *shard) {
	d := c.d
	d.graphMu.Lock()
	c.torn = true
	c.lent = false
	c.funding.Destroy()
	c.tenant.clients--
	if c.tenant.dedicated && c.tenant.clients == 0 {
		c.tenant.teardownGraphLocked()
	}
	d.weightEpoch.Add(1)
	d.graphMu.Unlock()
	sh.removeClientLocked(c)
	d.clientsN.Add(-1)
}
