package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// parkWorkers occupies every worker with a task that blocks on the
// returned gate, so subsequently queued tasks stay queued.
func parkWorkers(t *testing.T, d *Dispatcher) (gate chan struct{}) {
	t.Helper()
	gate = make(chan struct{})
	p, err := d.NewClient("park", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Workers(); i++ {
		if _, err := p.Submit(func() { <-gate }); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "workers parked", func() bool {
		return d.Snapshot().Dispatched == uint64(d.Workers())
	})
	return gate
}

func TestSubmitCtxCancelWhileQueued(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	gate := parkWorkers(t, d)
	c, err := d.NewClient("c", 100, WithQueueCap(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran bool
	task, err := c.SubmitCtx(ctx, func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	// The queue is at capacity: a Block-policy submitter now blocks.
	admitted := make(chan error, 1)
	go func() {
		_, err := c.Submit(func() {})
		admitted <- err
	}()
	select {
	case err := <-admitted:
		t.Fatalf("Submit returned (%v) while queue full; want block", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	// The cancelled task completes with context.Canceled without a
	// worker ever touching it (the only worker is parked).
	if err := task.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel: %v, want context.Canceled", err)
	}
	// Its slot was reclaimed: the blocked submitter is admitted.
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("blocked Submit after slot reclaim: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked submitter never admitted after cancellation")
	}
	close(gate)
	d.Close()
	if ran {
		t.Fatal("cancelled task ran")
	}
	s := d.Snapshot()
	if s.Cancelled != 1 {
		t.Fatalf("dispatcher cancelled = %d, want 1", s.Cancelled)
	}
	for _, cs := range s.Clients {
		if cs.Name == "c" && cs.Cancelled != 1 {
			t.Fatalf("client cancelled = %d, want 1", cs.Cancelled)
		}
	}
	if s.Pending != 0 {
		t.Fatalf("pending = %d after drain, want 0", s.Pending)
	}
}

func TestSubmitCtxCancelEmptiesQueueLeavesLottery(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	gate := parkWorkers(t, d)
	defer close(gate)
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	task, err := c.SubmitCtx(ctx, func() {})
	if err != nil {
		t.Fatal(err)
	}
	// The lock-free fast path parks the submission in the shard's ring;
	// tree membership is established when the ring drains (every draw
	// does that first, but the only worker here is parked). Force the
	// drain so the peek below observes the queued state.
	drainRings(d)
	sh := c.sh
	sh.mu.Lock()
	inTree := c.inTree
	sh.mu.Unlock()
	if !inTree {
		t.Fatal("client with queued work not in lottery tree")
	}
	cancel()
	<-task.Done()
	sh.mu.Lock()
	inTree = c.inTree
	d.graphMu.Lock()
	active := c.holder.Active()
	d.graphMu.Unlock()
	sh.mu.Unlock()
	if inTree || active {
		t.Fatalf("after cancelling last queued task: inTree=%v active=%v, want false/false", inTree, active)
	}
}

func TestSubmitCtxDeadline(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	gate := parkWorkers(t, d)
	defer close(gate)
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	task, err := c.SubmitCtx(ctx, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait after deadline: %v, want context.DeadlineExceeded", err)
	}
}

func TestSubmitCtxAlreadyCancelled(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	task, err := c.SubmitCtx(ctx, func() { t.Error("task from cancelled context ran") })
	if task != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx on cancelled ctx: task=%v err=%v", task, err)
	}
	if got := d.Snapshot().Clients[0].Submitted; got != 0 {
		t.Fatalf("submitted = %d, want 0", got)
	}
}

func TestSubmitCtxDispatchedTaskNotInterrupted(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	started := make(chan struct{})
	task, err := c.SubmitCtx(ctx, func() { close(started); <-release })
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker owns the task now
	cancel()  // must not interrupt it
	select {
	case <-task.Done():
		t.Fatal("running task completed by cancellation")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := task.Wait(); err != nil {
		t.Fatalf("running task's result clobbered by cancel: %v", err)
	}
}

func TestWaitCtx(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	task, err := c.Submit(func() { <-release })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := task.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitCtx past deadline: %v, want context.DeadlineExceeded", err)
	}
	close(release) // abandoning the wait did not cancel the task
	if err := task.WaitCtx(context.Background()); err != nil {
		t.Fatalf("WaitCtx after completion: %v", err)
	}
}

func TestBlockedSubmitCtxCancelled(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	gate := parkWorkers(t, d)
	defer close(gate)
	c, err := d.NewClient("c", 100, WithQueueCap(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(func() {}); err != nil { // fill the queue
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocked := make(chan error, 1)
	go func() {
		_, err := c.SubmitCtx(ctx, func() {})
		blocked <- err
	}()
	select {
	case err := <-blocked:
		t.Fatalf("SubmitCtx returned (%v) while queue full; want block", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked SubmitCtx after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked SubmitCtx not woken by its context")
	}
}

func TestCloseCtxGracefulDrainReturnsNil(t *testing.T) {
	d := New(Config{Workers: 2})
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CloseTimeout(10 * time.Second); err != nil {
		t.Fatalf("CloseTimeout on drainable backlog: %v", err)
	}
	s := d.Snapshot()
	if s.Completed != 100 || s.Pending != 0 {
		t.Fatalf("after graceful CloseCtx: %+v", s)
	}
}

func TestCloseCtxDeadlineDiscardsBacklog(t *testing.T) {
	d := New(Config{Workers: 1})
	gate := parkWorkers(t, d)
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Task
	var ran int
	for i := 0; i < 5; i++ {
		task, err := c.Submit(func() { ran++ })
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, task)
	}
	closed := make(chan error, 1)
	go func() { closed <- d.CloseTimeout(50 * time.Millisecond) }()
	// Past the deadline the backlog is discarded with ErrClosed...
	for i, task := range queued {
		if err := task.Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("discarded task %d: %v, want ErrClosed", i, err)
		}
	}
	// ...but CloseCtx still waits for the in-flight (parked) task.
	select {
	case err := <-closed:
		t.Fatalf("CloseCtx returned (%v) while a task was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case err := <-closed:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("CloseCtx after cut-short drain: %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CloseCtx never returned after in-flight task finished")
	}
	if ran != 0 {
		t.Fatalf("%d discarded tasks ran", ran)
	}
	if s := d.Snapshot(); s.Pending != 0 || !s.Closed {
		t.Fatalf("after deadline Close: %+v", s)
	}
	// A cut-short drain discards state wholesale; the bookkeeping and
	// funding graph must still balance afterwards.
	if err := CheckInvariants(d); err != nil {
		t.Fatalf("invariants after deadline Close: %v", err)
	}
}

// TestZeroWeightFallbackRotates: with zero total weight the fallback
// (shard.nextPendingLocked) must rotate among pending clients, not
// always serve the earliest-created one.
func TestZeroWeightFallbackRotates(t *testing.T) {
	// One shard so both clients share a roster and the rotation is
	// observable deterministically.
	d := New(Config{Workers: 1, Shards: 1})
	defer d.Close()
	gate := parkWorkers(t, d)
	defer close(gate)
	a, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewClient("b", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(func() {}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(func() {}); err != nil {
		t.Fatal(err)
	}
	// Both submissions sit in the ring until a drain; force one so the
	// fallback below has queued clients to rotate over.
	drainRings(d)
	sh := d.shards[0]
	sh.mu.Lock()
	first := sh.nextPendingLocked()
	second := sh.nextPendingLocked()
	third := sh.nextPendingLocked()
	sh.mu.Unlock()
	if first == nil || second == nil {
		t.Fatal("fallback found no pending client")
	}
	if first == second {
		t.Errorf("zero-weight fallback did not rotate: %q twice", first.Name())
	}
	if third != first {
		t.Errorf("rotation not cyclic: %q, %q, %q", first.Name(), second.Name(), third.Name())
	}
}

// TestStaleCompensationNotSettled: a slow task finishing late must
// not settle compensation over a boost earned by a later dispatch.
func TestStaleCompensationNotSettled(t *testing.T) {
	const slice = 40 * time.Millisecond
	d := New(Config{Workers: 2, ExpectedSlice: slice})
	defer d.Close()
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	slow, err := c.Submit(func() { <-gate }) // dispatch #1
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "slow task dispatched", func() bool {
		return d.Snapshot().Dispatched == 1
	})
	fast, err := c.Submit(func() {}) // dispatch #2, earns a boost
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Wait(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "compensation boost from the fast task", func() bool {
		return d.Snapshot().Clients[0].Compensation > 1
	})
	// Ensure the slow task's elapsed time exceeds the slice, so its
	// (stale) settlement would compute comp = 1 and erase the boost.
	time.Sleep(slice + 20*time.Millisecond)
	close(gate)
	if err := slow.Wait(); err != nil {
		t.Fatal(err)
	}
	// Settlement happens before Wait returns; the boost must survive.
	if got := d.Snapshot().Clients[0].Compensation; got <= 1 {
		t.Fatalf("stale dispatch settled: compensation = %v, want > 1", got)
	}
}

// TestTenantTeardownOrder: teardown must refuse to destroy a currency
// that still has issued tickets, keeping its base funding intact —
// not destroy the funding first and leave a live, zero-backed
// currency.
func TestTenantTeardownOrder(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	tn, err := d.NewTenant("shared", 50)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tn.NewClient("c", 5)
	if err != nil {
		t.Fatal(err)
	}
	d.graphMu.Lock()
	tn.teardownGraphLocked() // must refuse: c's funding is still issued
	d.graphMu.Unlock()
	if got := d.Snapshot().Clients[0].Funding; got != 50 {
		t.Fatalf("client funding after refused teardown = %v, want 50 (currency kept its backing)", got)
	}
	task, err := c.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedNewClientLeaksNothing: a client rejected at validation
// must not leak tickets into the tenant's currency (diluting
// siblings) nor leave behind a half-destroyed dedicated tenant.
func TestFailedNewClientLeaksNothing(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	// Dedicated-tenant path: the tenant (and its currency name) must
	// be fully cleaned up so the name is reusable.
	if _, err := d.NewClient("x", 10, WithQueueCap(-1)); err == nil {
		t.Fatal("NewClient with negative queue cap accepted")
	}
	if _, err := d.NewClient("x", 10); err != nil {
		t.Fatalf("currency name not reclaimed after failed NewClient: %v", err)
	}
	// Shared-tenant path: the failed sibling must not dilute a.
	tn, err := d.NewTenant("shared", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.NewClient("a", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.NewClient("b", 30, WithQueueCap(0)); err == nil {
		t.Fatal("NewClient with zero queue cap accepted")
	}
	for _, cs := range d.Snapshot().Clients {
		if cs.Name == "a" && cs.Funding != 100 {
			t.Fatalf("a funding = %v, want 100 (failed sibling leaked tickets)", cs.Funding)
		}
	}
}

// TestBlockedSubmitterWokenBy verifies every path that must wake a
// Block-policy submitter parked on a full queue.
func TestBlockedSubmitterWokenBy(t *testing.T) {
	setup := func(t *testing.T) (*Dispatcher, *Client, chan struct{}, chan error) {
		d := New(Config{Workers: 1})
		gate := parkWorkers(t, d)
		c, err := d.NewClient("c", 100, WithQueueCap(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Submit(func() {}); err != nil {
			t.Fatal(err)
		}
		blocked := make(chan error, 1)
		go func() {
			_, err := c.Submit(func() {})
			blocked <- err
		}()
		select {
		case err := <-blocked:
			t.Fatalf("Submit returned (%v) while queue full; want block", err)
		case <-time.After(50 * time.Millisecond):
		}
		return d, c, gate, blocked
	}
	expect := func(t *testing.T, blocked chan error, want error) {
		t.Helper()
		select {
		case err := <-blocked:
			if !errors.Is(err, want) {
				t.Fatalf("blocked Submit woken with %v, want %v", err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("blocked Submit never woken")
		}
	}
	t.Run("Close", func(t *testing.T) {
		d, _, gate, blocked := setup(t)
		// Close before opening the gate: a worker freed first could
		// dispatch the queued task and admit the blocked submitter
		// before Close marks the dispatcher closed.
		closed := make(chan struct{})
		go func() { d.Close(); close(closed) }()
		expect(t, blocked, ErrClosed)
		close(gate)
		<-closed
	})
	t.Run("Leave", func(t *testing.T) {
		d, c, gate, blocked := setup(t)
		c.Leave()
		expect(t, blocked, ErrClientLeft)
		close(gate)
		d.Close()
	})
	t.Run("Abandon", func(t *testing.T) {
		d, c, gate, blocked := setup(t)
		c.Abandon()
		expect(t, blocked, ErrClientLeft)
		close(gate)
		d.Close()
	})
}

// TestConcurrentLifecycleChurn hammers the new lifecycle paths —
// context cancellation, deadline submits, Abandon, Leave, blocked
// submitters, and a deadline-bounded Close — under the race detector.
func TestConcurrentLifecycleChurn(t *testing.T) {
	d := New(Config{Workers: 4, QueueCap: 8, ExpectedSlice: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Steady submitters, half of them cancelling queued work.
	for i := 0; i < 3; i++ {
		c, err := d.NewClient(fmt.Sprintf("steady%d", i), 100)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+n%3)*time.Millisecond)
				task, err := c.SubmitCtx(ctx, func() { time.Sleep(50 * time.Microsecond) })
				if err != nil {
					cancel()
					if errors.Is(err, ErrClosed) || errors.Is(err, ErrClientLeft) {
						return
					}
					continue
				}
				if n%2 == 0 {
					cancel() // may race the dispatch: either outcome is fine
				}
				_ = task.WaitCtx(ctx)
				cancel()
			}
		}(i, c)
	}
	// Churner: join, submit, abandon or leave.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			c, err := d.NewClient(fmt.Sprintf("churn%d", i), 50, WithQueueCap(2))
			if err != nil {
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			task, err := c.SubmitCtx(ctx, func() {})
			if err == nil && i%3 == 0 {
				cancel()
				<-task.Done()
			}
			if i%2 == 0 {
				c.Abandon()
			} else {
				c.Leave()
			}
			cancel()
		}
	}()
	// Snapshot reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = d.Snapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	// Invariant sweeper: the full cross-layer check must hold at every
	// instant of the churn, not just at rest.
	wg.Add(1)
	invariantErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := CheckInvariants(d); err != nil {
				select {
				case invariantErr <- err:
				default:
				}
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-invariantErr:
		t.Fatalf("invariants during churn: %v", err)
	default:
	}
	if err := d.CloseTimeout(10 * time.Second); err != nil {
		t.Fatalf("CloseTimeout: %v", err)
	}
	if err := CheckInvariants(d); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	s := d.Snapshot()
	if s.Completed != s.Dispatched {
		t.Fatalf("completed %d != dispatched %d after drain", s.Completed, s.Dispatched)
	}
	if s.Pending != 0 {
		t.Fatalf("pending = %d after drain", s.Pending)
	}
}
