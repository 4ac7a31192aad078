package rt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/ticket"
)

// parkGate stalls every worker on a blocking task from a massively
// funded gate client, submitting the gate tasks one at a time and
// waiting for each to actually start running (under batched draws,
// two gate tasks submitted together can land in one worker's batch
// and pin a single worker twice). Returns the release function.
func parkGate(t *testing.T, d *Dispatcher, name string) (release func()) {
	t.Helper()
	gateDone := make(chan struct{})
	var running atomic.Int32
	g, err := d.NewClient(name, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < d.Workers(); i++ {
		if _, err := g.Submit(func() { running.Add(1); <-gateDone }); err != nil {
			t.Fatal(err)
		}
		for running.Load() < int32(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("workers never parked on %s (%d/%d)", name, running.Load(), d.Workers())
			}
			runtime.Gosched()
		}
	}
	g.Leave()
	return func() { close(gateDone) }
}

// TestShardedShareConformance is the share-conformance check run
// against a sharded dispatcher: 16 clients funded through 3 separate
// currencies, spread round-robin over 4 shards, must still achieve
// their global base-unit shares — the inter-shard stride level and
// the per-shard trees must compose into one proportional lottery.
func TestShardedShareConformance(t *testing.T) {
	const (
		phaseDraws = 120000
		backlog    = 30000
		relTol     = 0.05 // same tolerance as the single-shard conformance test
	)
	// The measurement window is closed from inside the dispatch path: an
	// observer that blocks every EventDispatch past the target count.
	// Events are emitted outside all locks, so blocking freezes both
	// workers with no draws in flight — the closing Snapshot then sees
	// one consistent cut, and the window overshoots its target by at
	// most a couple of in-progress batches. (Polling d.dispatched from
	// the test goroutine instead overshoots by whole scheduler bursts —
	// tens of thousands of draws on a single-CPU box — which both
	// smears the window and can drain the heaviest client's backlog.)
	var drawCount atomic.Int64
	var blocked atomic.Int32
	windowGate := make(chan struct{})
	obs := ObserverFunc(func(ev Event) {
		if ev.Kind != EventDispatch {
			return
		}
		if drawCount.Add(1) > phaseDraws {
			blocked.Add(1)
			<-windowGate
			blocked.Add(-1)
		}
	})
	d := New(Config{Workers: 2, Shards: 4, QueueCap: backlog, Seed: 7, Observer: obs})
	defer d.Close()
	defer close(windowGate) // before Close: drain needs unblocked workers
	if d.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", d.Shards())
	}

	release := parkGate(t, d, "gate")

	// Three tenants; per-client base-unit entitlement is the tenant
	// funding split by intra-currency ticket ratios. Every client's
	// share stays >= 40/800 = 5% so a 120k-draw window gives each one
	// enough expected draws for the 5% relative tolerance.
	type spec struct {
		tenant  string
		funding ticket.Amount
		tickets []ticket.Amount
	}
	specs := []spec{
		{"A", 200, []ticket.Amount{100, 100, 100, 100}},
		{"B", 240, []ticket.Amount{100, 100, 100, 100, 100, 100}},
		{"C", 360, []ticket.Amount{100, 100, 100, 100, 200, 200}},
	}
	entitled := make(map[string]float64) // client name -> base units
	var totalBase float64
	for _, sp := range specs {
		tn, err := d.NewTenant(sp.tenant, sp.funding)
		if err != nil {
			t.Fatal(err)
		}
		var sum ticket.Amount
		for _, a := range sp.tickets {
			sum += a
		}
		for i, a := range sp.tickets {
			name := fmt.Sprintf("%s%d", sp.tenant, i)
			c, err := tn.NewClient(name, a)
			if err != nil {
				t.Fatal(err)
			}
			entitled[name] = float64(sp.funding) * float64(a) / float64(sum)
			totalBase += entitled[name]
			for j := 0; j < backlog; j++ {
				if _, err := c.Submit(func() {}); err != nil {
					t.Fatalf("fill %s: %v", name, err)
				}
			}
		}
	}

	// All 16 clients must be spread over all 4 shards.
	shardsUsed := make(map[int]int)
	base := d.Snapshot()
	for _, cs := range base.Clients {
		shardsUsed[cs.Shard]++
	}
	if len(shardsUsed) != 4 {
		t.Fatalf("clients landed on %d shards, want 4: %v", len(shardsUsed), shardsUsed)
	}
	if err := CheckInvariants(d); err != nil {
		t.Fatalf("parked setup: %v", err)
	}

	baseCounts := make(map[string]uint64)
	for _, cs := range base.Clients {
		baseCounts[cs.Name] = cs.Dispatched
	}
	release()
	deadline := time.Now().Add(2 * time.Minute)
	for i := 0; blocked.Load() < int32(d.Workers()); i++ {
		if i%4096 == 0 && time.Now().After(deadline) {
			t.Fatalf("window never closed: %d/%d workers blocked, %d draws",
				blocked.Load(), d.Workers(), drawCount.Load())
		}
		runtime.Gosched()
	}
	s := d.Snapshot()
	if err := CheckInvariants(d); err != nil {
		t.Fatalf("after window: %v", err)
	}

	var total uint64
	got := make(map[string]uint64)
	shardGot := make(map[int]uint64)
	shardWeight := make(map[int]float64)
	for _, cs := range s.Clients {
		if _, ok := entitled[cs.Name]; !ok {
			continue
		}
		if cs.QueueDepth == 0 {
			t.Fatalf("client %s drained its backlog mid-window; deepen backlog", cs.Name)
		}
		got[cs.Name] = cs.Dispatched - baseCounts[cs.Name]
		total += got[cs.Name]
		shardGot[cs.Shard] += got[cs.Name]
		shardWeight[cs.Shard] += entitled[cs.Name]
	}
	for sid, n := range shardGot {
		t.Logf("shard %d: %d draws (%.4f achieved, %.4f weighted)",
			sid, n, float64(n)/float64(total), shardWeight[sid]/totalBase)
	}
	if len(got) != 16 {
		t.Fatalf("snapshot has %d measured clients, want 16", len(got))
	}
	observed := make([]int, 0, len(got))
	expected := make([]float64, 0, len(got))
	for name, want := range entitled {
		achieved := float64(got[name]) / float64(total)
		share := want / totalBase
		rel := achieved/share - 1
		t.Logf("%s: %d dispatches, achieved %.4f, entitled %.4f (rel err %+.3f)",
			name, got[name], achieved, share, rel)
		if rel < -relTol || rel > relTol {
			t.Errorf("client %s: achieved share %.4f vs entitled %.4f exceeds %.0f%% relative error",
				name, achieved, share, relTol*100)
		}
		observed = append(observed, int(got[name]))
		expected = append(expected, share*float64(total))
	}
	chi2, err := stats.ChiSquare(observed, expected)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(len(observed) - 1); chi2 > crit {
		t.Errorf("chi-square %.2f exceeds 99.9%% critical value %.2f", chi2, crit)
	}
}

// TestSnapshotDoesNotStallDispatch is the regression test for the
// sharded Snapshot: under full saturation a storm of concurrent
// snapshots must not stall dispatch (the pre-shard implementation
// froze the whole dispatcher for every snapshot). The backlog has to
// drain to completion while snapshots hammer the dispatcher
// continuously.
func TestSnapshotDoesNotStallDispatch(t *testing.T) {
	const backlog = 20000
	d := New(Config{Workers: 2, QueueCap: backlog, Seed: 9})
	defer d.Close()

	clients := make([]*Client, 4)
	for i := range clients {
		c, err := d.NewClient(fmt.Sprintf("c%d", i), ticket.Amount(100*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		for j := 0; j < backlog; j++ {
			if _, err := c.Submit(func() {}); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	stormDone := make(chan int)
	go func() {
		snaps := 0
		for {
			select {
			case <-stop:
				stormDone <- snaps
				return
			default:
				s := d.Snapshot()
				if got := len(s.Clients); got > len(clients) {
					t.Errorf("snapshot has %d clients, want <= %d", got, len(clients))
					stormDone <- snaps
					return
				}
				snaps++
			}
		}
	}()

	deadline := time.Now().Add(2 * time.Minute)
	target := uint64(len(clients) * backlog)
	for i := 0; d.completed.Load() < target; i++ {
		if i%4096 == 0 && time.Now().After(deadline) {
			close(stop)
			t.Fatalf("dispatch stalled under snapshot storm: %d/%d completed", d.completed.Load(), target)
		}
		runtime.Gosched()
	}
	close(stop)
	if snaps := <-stormDone; snaps == 0 {
		t.Fatal("snapshot storm never completed a snapshot")
	}
	if err := CheckInvariants(d); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIsExactCut: Snapshot reads its per-client rows and the
// dispatcher totals with every shard lock held, so under a saturated
// two-shard pool each total equals the sum of its per-client column in
// every snapshot, and the achieved shares sum to 1. A snapshot that
// visits shards one at a time, or reads the totals outside the rows'
// critical sections, fails this within a few hundred calls.
func TestSnapshotIsExactCut(t *testing.T) {
	d := New(Config{Workers: 2, Shards: 2, QueueCap: 64, Seed: 5})
	defer d.Close()

	clients := make([]*Client, 8)
	for i := range clients {
		c, err := d.NewClient(fmt.Sprintf("c%d", i), ticket.Amount(100*(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stop the load before the deferred Close, also on a failed check.
	stopLoad := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopLoad()
	// Backlog: Block-policy detached submits keep every queue full.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := clients[i%len(clients)].SubmitDetached(func() {}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	// Cancellations and sheds, so the Cancelled and Shed columns move
	// while snapshots are taken too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := clients[i%len(clients)]
			ctx, cancel := context.WithCancel(context.Background())
			task, err := c.SubmitCtx(ctx, func() {})
			cancel()
			if err == nil {
				<-task.Done()
			}
			c.Shed(1)
		}
	}()

	for n := 0; n < 2000; n++ {
		s := d.Snapshot()
		if len(s.Clients) != len(clients) {
			t.Fatalf("snapshot %d has %d clients, want %d", n, len(s.Clients), len(clients))
		}
		var dispatched, cancelled, shed uint64
		share := 0.0
		for _, cs := range s.Clients {
			dispatched += cs.Dispatched
			cancelled += cs.Cancelled
			shed += cs.Shed
			share += cs.AchievedShare
		}
		if dispatched != s.Dispatched || cancelled != s.Cancelled || shed != s.Shed {
			t.Fatalf("snapshot %d: per-client sums dispatched/cancelled/shed %d/%d/%d != totals %d/%d/%d",
				n, dispatched, cancelled, shed, s.Dispatched, s.Cancelled, s.Shed)
		}
		if s.Dispatched > 0 && math.Abs(share-1) > 1e-9 {
			t.Fatalf("snapshot %d: achieved shares sum to %.12f, want 1", n, share)
		}
	}
	// Workers can drain the queues faster than the one backlog
	// goroutine refills them, so Shed(1) may find nothing for a while:
	// keep the load running until both columns have moved, under a
	// deadline, before stopping it.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if s := d.Snapshot(); s.Cancelled > 0 && s.Shed > 0 {
			break
		}
	}
	stopLoad()
	if s := d.Snapshot(); s.Cancelled == 0 || s.Shed == 0 {
		t.Fatalf("cancelled %d, shed %d: both columns should have moved", s.Cancelled, s.Shed)
	}
	if err := CheckInvariants(d); err != nil {
		t.Fatal(err)
	}
}

// TestRingParkedWorkWithBusyWorkers: with the only worker blocked
// inside a task, lock-free submissions to clients on both shards stay
// parked in the submit rings, and nothing periodic drains them. They
// must still be counted by Pending, evicted by Shed and dropped by
// Abandon, and everything left must run once the worker is free.
func TestRingParkedWorkWithBusyWorkers(t *testing.T) {
	d := New(Config{Workers: 1, Shards: 2, Seed: 13})
	defer d.Close()
	gate := parkWorkers(t, d)
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	// Round-robin placement alternates shards: a and x share one shard,
	// b and y the other.
	names := []string{"a", "b", "x", "y"}
	cs := make(map[string]*Client)
	for _, name := range names {
		c, err := d.NewClient(name, 100)
		if err != nil {
			t.Fatal(err)
		}
		cs[name] = c
	}
	if cs["a"].sh == cs["b"].sh || cs["a"].sh != cs["x"].sh || cs["b"].sh != cs["y"].sh {
		t.Fatal("clients not spread over both shards as a/x and b/y")
	}

	const perClient = 4
	var ran atomic.Int32
	tasks := make(map[string][]*Task)
	for _, name := range names {
		for i := 0; i < perClient; i++ {
			task, err := cs[name].Submit(func() { ran.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			tasks[name] = append(tasks[name], task)
		}
	}
	for _, sh := range d.shards {
		if got := sh.ringPending.Load(); got != 2*perClient {
			t.Fatalf("shard %d ring holds %d submissions, want %d", sh.id, got, 2*perClient)
		}
	}
	if got, want := d.Pending(), len(names)*perClient; got != want {
		t.Fatalf("Pending = %d with every submission in a ring, want %d", got, want)
	}
	for _, name := range names {
		if got := cs[name].Pending(); got != perClient {
			t.Fatalf("%s.Pending = %d, want %d", name, got, perClient)
		}
	}

	// Shed evicts the oldest ring-parked tasks on each shard.
	for _, name := range []string{"a", "b"} {
		if got := cs[name].Shed(2); got != 2 {
			t.Fatalf("%s.Shed(2) = %d, want 2", name, got)
		}
		for i, task := range tasks[name][:2] {
			if err := task.Wait(); !errors.Is(err, ErrShed) {
				t.Fatalf("%s task %d: Wait = %v, want ErrShed", name, i, err)
			}
		}
	}
	// Abandon drops the rest of a client's parked work on each shard.
	for _, name := range []string{"x", "y"} {
		cs[name].Abandon()
		for i, task := range tasks[name] {
			if err := task.Wait(); !errors.Is(err, ErrClientLeft) {
				t.Fatalf("%s task %d: Wait = %v, want ErrClientLeft", name, i, err)
			}
		}
	}
	if got := d.Pending(); got != 2*(perClient-2) {
		t.Fatalf("Pending = %d after shed and abandon, want %d", got, 2*(perClient-2))
	}
	if err := CheckInvariants(d); err != nil {
		t.Fatal(err)
	}

	release()
	for _, name := range []string{"a", "b"} {
		for i, task := range tasks[name][2:] {
			if err := task.Wait(); err != nil {
				t.Fatalf("%s task %d: Wait = %v after release, want nil", name, i+2, err)
			}
		}
	}
	if got := ran.Load(); got != 2*(perClient-2) {
		t.Fatalf("%d tasks ran, want %d", got, 2*(perClient-2))
	}
	if got := d.Pending(); got != 0 {
		t.Fatalf("Pending = %d after release, want 0", got)
	}
	if err := CheckInvariants(d); err != nil {
		t.Fatal(err)
	}
}

// TestRingOnlyShardIsServed: a shard whose only work sits in its submit
// ring has no tree weight yet. While another shard keeps the one worker
// busy, the worker must still visit it, drain the ring and run the
// task; nothing periodic drains rings on the worker's behalf.
func TestRingOnlyShardIsServed(t *testing.T) {
	d := New(Config{Workers: 1, Shards: 2, QueueCap: 64, Seed: 17})
	defer d.Close()
	hog, err := d.NewClient("hog", 100)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := d.NewClient("lone", 100)
	if err != nil {
		t.Fatal(err)
	}
	if hog.sh == lone.sh {
		t.Fatal("hog and lone placed on the same shard")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopLoad := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopLoad()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := hog.SubmitDetached(func() { time.Sleep(50 * time.Microsecond) }); err != nil {
				t.Errorf("hog submit: %v", err)
				return
			}
		}
	}()
	waitUntil(t, "hog backlogged", func() bool { return hog.Pending() >= 32 })

	task, err := lone.Submit(func() {})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-task.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("lone task still waiting after 10s with the hog's shard busy (ring backlog %d)",
			lone.sh.ringPending.Load())
	}
	stopLoad()
	if err := CheckInvariants(d); err != nil {
		t.Fatal(err)
	}
}
