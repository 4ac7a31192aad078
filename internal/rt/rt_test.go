package rt

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ticket"
)

// waitUntil polls cond every millisecond until it holds or the
// deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// drainRings force-drains every shard's submit ring, placing parked
// lock-free submissions into their clients' queues, so tests can
// observe post-enqueue state (tree membership, queue depth) without
// waiting for a worker's next draw to do the drain.
func drainRings(d *Dispatcher) {
	for _, sh := range d.shards {
		sh.mu.Lock()
		acts := d.drainRingLocked(sh)
		sh.publishLocked()
		sh.mu.Unlock()
		d.finishActions(acts)
	}
}

func TestSubmitRunsTask(t *testing.T) {
	d := New(Config{Workers: 2})
	defer d.Close()
	c, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	task, err := c.Submit(func() { close(ran) })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("task never ran")
	}
	if err := task.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := task.Err(); err != nil {
		t.Fatalf("Err after done: %v", err)
	}
}

func TestCloseDrains(t *testing.T) {
	d := New(Config{Workers: 2})
	c, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		if _, err := c.Submit(func() { done.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	d.Close() // must not return before every queued task ran
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("Close returned before the queue drained")
	}
	if _, err := c.Submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	s := d.Snapshot()
	if !s.Closed || s.Completed != n || s.Pending != 0 {
		t.Fatalf("snapshot after Close: %+v", s)
	}
}

func TestPanicIsolation(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	c, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	task, err := c.Submit(func() { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Wait after panic: %v", err)
	}
	// The worker survived: a follow-up task still runs.
	task2, err := c.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := task2.Wait(); err != nil {
		t.Fatalf("task after panic: %v", err)
	}
	s := d.Snapshot()
	if s.Panicked != 1 || s.Clients[0].Panics != 1 {
		t.Fatalf("panic counts: %+v", s)
	}
}

func TestRejectBackpressure(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	c, err := d.NewClient("a", 100, WithQueueCap(2), WithOverflow(Reject))
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	// Occupy the only worker so the queue backs up.
	first, err := c.Submit(func() { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "worker to pick up the gate task", func() bool {
		return d.Snapshot().Dispatched == 1
	})
	// Fill the queue to capacity, then overflow.
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(func() {}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if _, err := c.Submit(func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit: %v, want ErrQueueFull", err)
	}
	if got := d.Snapshot().Clients[0].Rejected; got != 1 {
		t.Fatalf("rejected count = %d, want 1", got)
	}
	close(gate)
	if err := first.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockBackpressure(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	c, err := d.NewClient("a", 100, WithQueueCap(1)) // Block is the default
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if _, err := c.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "worker to pick up the gate task", func() bool {
		return d.Snapshot().Dispatched == 1
	})
	if _, err := c.Submit(func() {}); err != nil { // fills the queue
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() {
		_, err := c.Submit(func() {})
		submitted <- err
	}()
	select {
	case err := <-submitted:
		t.Fatalf("Submit returned (%v) while queue full; want block", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate) // drain; the blocked Submit must complete
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatalf("blocked Submit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Submit never completed")
	}
}

func TestLeaveDrainsThenRetires(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	a, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewClient("b", 100)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if _, err := a.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "worker busy", func() bool { return d.Snapshot().Dispatched == 1 })
	var ran int
	last, err := a.Submit(func() { ran++ })
	if err != nil {
		t.Fatal(err)
	}
	a.Leave()
	if _, err := a.Submit(func() {}); !errors.Is(err, ErrClientLeft) {
		t.Fatalf("Submit after Leave: %v, want ErrClientLeft", err)
	}
	close(gate)
	if err := last.Wait(); err != nil { // queued task still ran
		t.Fatal(err)
	}
	waitUntil(t, "client teardown", func() bool {
		s := d.Snapshot()
		return len(s.Clients) == 1 && s.Clients[0].Name == "b"
	})
	if ran != 1 {
		t.Fatalf("queued task ran %d times", ran)
	}
	// b still works and now holds the entire entitlement.
	s := d.Snapshot()
	if s.Clients[0].EntitledShare != 1 {
		t.Fatalf("b entitled share = %v, want 1", s.Clients[0].EntitledShare)
	}
	task, err := b.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTenantInsulation(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	ta, err := d.NewTenant("alice", 100)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := d.NewTenant("bob", 300)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := ta.NewClient("a1", 10)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ta.NewClient("a2", 30)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := tb.NewClient("b1", 7)
	if err != nil {
		t.Fatal(err)
	}
	_ = b1
	byName := func(s Snapshot, name string) ClientSnapshot {
		for _, c := range s.Clients {
			if c.Name == name {
				return c
			}
		}
		t.Fatalf("client %q missing from snapshot", name)
		return ClientSnapshot{}
	}
	s := d.Snapshot()
	// alice's 100 base units split 10:30 between a1 and a2; bob's
	// lone client holds all 300.
	if got := byName(s, "a1").Funding; got != 25 {
		t.Errorf("a1 funding = %v, want 25", got)
	}
	if got := byName(s, "a2").Funding; got != 75 {
		t.Errorf("a2 funding = %v, want 75", got)
	}
	if got := byName(s, "b1").Funding; got != 300 {
		t.Errorf("b1 funding = %v, want 300", got)
	}
	// Inflation inside alice redistributes alice's 100 base units
	// but cannot touch bob: a1 inflating 10 -> 90 moves a1 to
	// 90/120 of 100, and b1 stays at 300.
	if err := a1.SetTickets(90); err != nil {
		t.Fatal(err)
	}
	s = d.Snapshot()
	if got := byName(s, "a1").Funding; got != 75 {
		t.Errorf("after inflation a1 funding = %v, want 75", got)
	}
	if got := byName(s, "a2").Funding; got != 25 {
		t.Errorf("after inflation a2 funding = %v, want 25", got)
	}
	if got := byName(s, "b1").Funding; got != 300 {
		t.Errorf("after inflation b1 funding = %v, want 300 (insulation)", got)
	}
	// Tenant-level refunding does change cross-tenant shares.
	if err := ta.SetFunding(300); err != nil {
		t.Fatal(err)
	}
	s = d.Snapshot()
	if got := byName(s, "b1").EntitledShare; got != 0.5 {
		t.Errorf("b1 entitled share = %v, want 0.5", got)
	}
	_ = a2
}

func TestWaitOnTransfersFunding(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	a, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewClient("b", 200)
	if err != nil {
		t.Fatal(err)
	}
	// Park the worker on an unrelated client so b's task stays queued.
	parker, err := d.NewClient("parker", 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	if _, err := parker.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "worker parked", func() bool { return d.Snapshot().Dispatched == 1 })

	tb, err := b.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- a.WaitOn(tb) }()

	byName := func(name string) ClientSnapshot {
		for _, c := range d.Snapshot().Clients {
			if c.Name == name {
				return c
			}
		}
		return ClientSnapshot{}
	}
	// While a waits on b's task, a's 100 base units back b.
	waitUntil(t, "transfer to take effect", func() bool {
		return byName("b").Funding == 300 && byName("a").Funding == 0
	})
	close(gate)
	if err := <-waited; err != nil {
		t.Fatalf("WaitOn: %v", err)
	}
	// Restored after the wait.
	if got := byName("a").Funding; got != 100 {
		t.Errorf("a funding after WaitOn = %v, want 100", got)
	}
	if got := byName("b").Funding; got != 200 {
		t.Errorf("b funding after WaitOn = %v, want 200", got)
	}
}

func TestCompensationBoostAndReset(t *testing.T) {
	d := New(Config{Workers: 1, ExpectedSlice: 50 * time.Millisecond})
	defer d.Close()
	c, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	task, err := c.Submit(func() {}) // finishes far under the slice
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "compensation boost", func() bool {
		return d.Snapshot().Clients[0].Compensation > 1
	})
	// The boost is consumed by the next win.
	task2, err := c.Submit(func() { time.Sleep(60 * time.Millisecond) })
	if err != nil {
		t.Fatal(err)
	}
	if err := task2.Wait(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "compensation reset", func() bool {
		return d.Snapshot().Clients[0].Compensation == 1
	})
}

func TestSnapshotWaitPercentiles(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	c, err := d.NewClient("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	var last *Task
	for i := 0; i < 100; i++ {
		task, err := c.Submit(func() {})
		if err != nil {
			t.Fatal(err)
		}
		last = task
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "all dispatches", func() bool { return d.Snapshot().Completed == 100 })
	s := d.Snapshot().Clients[0]
	if s.WaitP50 < 0 || s.WaitP99 < s.WaitP50 {
		t.Fatalf("wait percentiles inconsistent: p50=%v p99=%v", s.WaitP50, s.WaitP99)
	}
	if s.Dispatched != 100 || s.Submitted != 100 || s.AchievedShare != 1 {
		t.Fatalf("snapshot counts: %+v", s)
	}
}

func TestDuplicateTenantName(t *testing.T) {
	d := New(Config{Workers: 1})
	defer d.Close()
	if _, err := d.NewClient("dup", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewClient("dup", 10); err == nil {
		t.Fatal("duplicate client/currency name accepted")
	}
	if _, err := d.NewTenant("dup", 10); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
}

// TestConcurrentChurn hammers every mutation path at once under the
// race detector: submits from many goroutines, joins and leaves,
// transfers, inflation, and snapshots.
func TestConcurrentChurn(t *testing.T) {
	d := New(Config{Workers: 4, QueueCap: 64, ExpectedSlice: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Three long-lived clients submitting constantly.
	for i, name := range []string{"x", "y", "z"} {
		c, err := d.NewClient(name, ticket.Amount(100*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				task, err := c.Submit(func() {})
				if err != nil {
					return
				}
				_ = task
			}
		}(c)
	}
	// Churner: join, submit, wait with transfer, inflate, leave.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c, err := d.NewClient(fmt.Sprintf("churn%d", i), 50)
			if err != nil {
				return
			}
			task, err := c.Submit(func() {})
			if err == nil {
				_ = c.WaitOn(task)
			}
			_ = c.SetTickets(25)
			c.Leave()
		}
	}()
	// Snapshot reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = d.Snapshot()
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	d.Close()
	s := d.Snapshot()
	if s.Completed != s.Dispatched {
		t.Fatalf("completed %d != dispatched %d after drain", s.Completed, s.Dispatched)
	}
}
