package rt

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// queueShape drains the client's shard ring and returns the FIFO's
// head index, live depth and backing-array capacity.
func queueShape(c *Client) (head, depth, capacity int) {
	d, sh := c.d, c.sh
	sh.mu.Lock()
	acts := d.drainRingLocked(sh)
	head, depth, capacity = c.head, c.pendingLocked(), cap(c.queue)
	sh.publishLocked()
	sh.mu.Unlock()
	d.finishActions(acts)
	return head, depth, capacity
}

// TestBacklogQueueStaysBounded: a client that stays backlogged never
// empties its FIFO, so the queue never resets to the array's start.
// Its backing array must still stay within twice its capacity bound,
// however many tasks it has run, rather than grow by a slot per task.
func TestBacklogQueueStaysBounded(t *testing.T) {
	const (
		qcap       = 4096
		dispatches = 1 << 20
	)
	d := New(Config{Workers: 2, Shards: 1, Seed: 3})
	defer d.Close()
	c, err := d.NewClient("backlog", 100, WithQueueCap(qcap))
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	body := func() { ran.Add(1) }
	// Block-policy detached submits hold pending at or below qcap.
	for ran.Load() < dispatches {
		if err := c.SubmitDetached(body); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, capacity := queueShape(c); capacity > 2*qcap {
		t.Fatalf("after %d dispatches the queue's backing array holds %d slots, want <= %d (2 x queue cap %d)",
			ran.Load(), capacity, 2*qcap, qcap)
	}
	if err := CheckInvariants(d); err != nil {
		t.Fatal(err)
	}
}

// TestCompactedQueueShedCancelAbandon: once pushLocked has moved the
// live tail of a full FIFO down over its consumed head, Shed still
// evicts the oldest tasks, a cancelled task is spliced out, the rest
// run in submission order, and Abandon drops every survivor.
func TestCompactedQueueShedCancelAbandon(t *testing.T) {
	const qcap = 8
	// compacted returns a client on a parked pool whose queue has been
	// compacted: 8 tasks, 5 shed from the head, 5 more pushed. The
	// returned tasks are the 8 queued ones in FIFO order, with their
	// cancel functions.
	compacted := func(t *testing.T, d *Dispatcher, order *[]int, mu *sync.Mutex) (*Client, []*Task, []context.CancelFunc) {
		t.Helper()
		c, err := d.NewClient("c", 100, WithQueueCap(qcap))
		if err != nil {
			t.Fatal(err)
		}
		var tasks []*Task
		var cancels []context.CancelFunc
		submit := func(i int) {
			ctx, cancel := context.WithCancel(context.Background())
			task, err := c.SubmitCtx(ctx, func() {
				mu.Lock()
				*order = append(*order, i)
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
			cancels = append(cancels, cancel)
		}
		for i := 0; i < qcap; i++ {
			submit(i)
		}
		if n := c.Shed(5); n != 5 {
			t.Fatalf("Shed(5) evicted %d", n)
		}
		for i, task := range tasks[:5] {
			if err := task.Wait(); !errors.Is(err, ErrShed) {
				t.Fatalf("task %d: err %v, want ErrShed", i, err)
			}
		}
		for i := qcap; i < qcap+5; i++ {
			submit(i)
		}
		head, depth, capacity := queueShape(c)
		if head != 0 || depth != qcap || capacity != qcap {
			t.Fatalf("queue head %d, depth %d, cap %d; want a compacted 0, %d, %d", head, depth, capacity, qcap, qcap)
		}
		if err := CheckInvariants(d); err != nil {
			t.Fatal(err)
		}
		return c, tasks[5:], cancels[5:]
	}

	t.Run("shed-cancel-run", func(t *testing.T) {
		d := New(Config{Workers: 1, Shards: 1, Seed: 7})
		defer d.Close()
		gate := parkWorkers(t, d)
		release := sync.OnceFunc(func() { close(gate) })
		defer release()
		var mu sync.Mutex
		var order []int
		c, tasks, cancels := compacted(t, d, &order, &mu)
		defer func() {
			for _, cancel := range cancels {
				cancel()
			}
		}()
		// Queued: 5 6 7 8 9 10 11 12. Shed the oldest, cancel 9.
		if n := c.Shed(1); n != 1 {
			t.Fatalf("Shed(1) evicted %d", n)
		}
		if err := tasks[0].Wait(); !errors.Is(err, ErrShed) {
			t.Fatalf("task 5: err %v, want ErrShed", err)
		}
		cancels[4]()
		if err := tasks[4].Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("task 9: err %v, want context.Canceled", err)
		}
		if _, depth, _ := queueShape(c); depth != 6 {
			t.Fatalf("queue depth %d after one shed and one cancel, want 6", depth)
		}
		release()
		for i, task := range tasks {
			if i == 0 || i == 4 {
				continue
			}
			if err := task.Wait(); err != nil {
				t.Fatalf("task %d: %v", i+5, err)
			}
		}
		want := []int{6, 7, 8, 10, 11, 12}
		mu.Lock()
		defer mu.Unlock()
		if len(order) != len(want) {
			t.Fatalf("ran %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("ran %v, want %v (FIFO order)", order, want)
			}
		}
		if err := CheckInvariants(d); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("abandon", func(t *testing.T) {
		d := New(Config{Workers: 1, Shards: 1, Seed: 7})
		defer d.Close()
		gate := parkWorkers(t, d)
		defer close(gate)
		var mu sync.Mutex
		var order []int
		c, tasks, cancels := compacted(t, d, &order, &mu)
		defer func() {
			for _, cancel := range cancels {
				cancel()
			}
		}()
		c.Abandon()
		for i, task := range tasks {
			if err := task.Wait(); !errors.Is(err, ErrClientLeft) {
				t.Fatalf("task %d: err %v, want ErrClientLeft", i+5, err)
			}
		}
		if got := c.Pending(); got != 0 {
			t.Fatalf("Pending %d after Abandon, want 0", got)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(order) != 0 {
			t.Fatalf("abandoned tasks ran: %v", order)
		}
		if err := CheckInvariants(d); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWaitAndRunTiming: runs are timed only when something reads the
// time, and fast-path submits are stamped enqueued at their ring
// drain. Neither may cost an instrument its data: with nothing
// observing, every dispatch still lands one wait observation, and
// with an observer set, submit events carry a time and completion
// events a run time.
func TestWaitAndRunTiming(t *testing.T) {
	const n = 2000
	t.Run("unobserved", func(t *testing.T) {
		d := New(Config{Workers: 2, Shards: 1, Seed: 9})
		defer d.Close()
		c, err := d.NewClient("c", 100, WithQueueCap(n))
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int64
		for i := 0; i < n; i++ {
			if err := c.SubmitDetached(func() { ran.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, "all tasks ran", func() bool { return ran.Load() == n })
		s := d.Snapshot()
		if s.Dispatched != n {
			t.Fatalf("dispatched %d, want %d", s.Dispatched, n)
		}
		if got := c.WaitHistogram().Count(); got != n {
			t.Fatalf("wait histogram holds %d observations for %d dispatches", got, n)
		}
		if s.Clients[0].WaitP50 <= 0 {
			t.Fatalf("WaitP50 = %v, want > 0", s.Clients[0].WaitP50)
		}
	})

	t.Run("observed", func(t *testing.T) {
		var mu sync.Mutex
		var submits, completes []Event
		obs := ObserverFunc(func(e Event) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Kind {
			case EventSubmit:
				submits = append(submits, e)
			case EventComplete:
				completes = append(completes, e)
			}
		})
		d := New(Config{Workers: 2, Shards: 1, Seed: 9, Observer: obs})
		defer d.Close()
		c, err := d.NewClient("c", 100)
		if err != nil {
			t.Fatal(err)
		}
		const m = 50
		tasks := make([]*Task, 0, m)
		for i := 0; i < m; i++ {
			task, err := c.Submit(func() { time.Sleep(50 * time.Microsecond) })
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, task)
		}
		for _, task := range tasks {
			if err := task.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, "all completions observed", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(completes) == m
		})
		mu.Lock()
		defer mu.Unlock()
		if len(submits) != m {
			t.Fatalf("%d submit events for %d submits", len(submits), m)
		}
		for _, e := range submits {
			if e.At.IsZero() {
				t.Fatal("submit event with zero At")
			}
		}
		for _, e := range completes {
			if e.Elapsed <= 0 {
				t.Fatalf("complete event with Elapsed %v, want > 0", e.Elapsed)
			}
		}
	})
}
