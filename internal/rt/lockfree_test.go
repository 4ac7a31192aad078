package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rt/audit"
	"repro/internal/ticket"
)

// TestRingPublishPop exercises the MPSC ring single-threaded: FIFO
// order, the full condition, and slot reuse across generations (the
// sequence numbers must keep pairing producers and the consumer after
// the indices wrap the buffer).
func TestRingPublishPop(t *testing.T) {
	var r ring
	r.init(8)
	c := &Client{}
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			if !r.publish(ringMsg{c: c, enq: time.Unix(int64(round*8+i), 0)}) {
				t.Fatalf("round %d: publish %d failed on non-full ring", round, i)
			}
		}
		if r.publish(ringMsg{c: c}) {
			t.Fatalf("round %d: publish succeeded on full ring", round)
		}
		for i := 0; i < 8; i++ {
			m, ok := r.pop()
			if !ok {
				t.Fatalf("round %d: pop %d failed on non-empty ring", round, i)
			}
			if got, want := m.enq.Unix(), int64(round*8+i); got != want {
				t.Fatalf("round %d: pop %d returned seq %d, want %d (FIFO broken)", round, i, got, want)
			}
		}
		if _, ok := r.pop(); ok {
			t.Fatalf("round %d: pop succeeded on empty ring", round)
		}
	}
}

// TestRingConcurrentProducers hammers one ring with parallel
// producers against a single consumer and checks nothing is lost,
// duplicated, or reordered per producer (MPSC guarantees FIFO per
// producer, not globally).
func TestRingConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perProd   = 4096
	)
	var r ring
	r.init(ringSize)
	clients := make([]*Client, producers)
	for i := range clients {
		clients[i] = &Client{}
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				// Spin on full: the consumer below is always draining.
				for !r.publish(ringMsg{c: clients[p], enq: time.Unix(int64(i), 0)}) {
				}
			}
		}(p)
	}
	got := make(map[*Client]int64)
	seen := 0
	for seen < producers*perProd {
		m, ok := r.pop()
		if !ok {
			continue
		}
		if m.enq.Unix() != got[m.c] {
			t.Fatalf("producer reorder: client %p popped %d, want %d", m.c, m.enq.Unix(), got[m.c])
		}
		got[m.c]++
		seen++
	}
	wg.Wait()
	if _, ok := r.pop(); ok {
		t.Fatal("ring not empty after all messages consumed")
	}
	for c, n := range got {
		if n != perProd {
			t.Fatalf("client %p: consumed %d messages, want %d", c, n, perProd)
		}
	}
}

// TestLockFreeSnapshotStaleness is the -race storm for the RCU draw
// path: detached submit storms keep every shard's ring and snapshot
// hot while ticket retargeting churns the tree generation (forcing
// stale candidates through the epoch re-validation) and join/Abandon
// churn retires clients out from under published snapshots. A fairness
// auditor rides along so window accounting runs under the same storm.
//
// Asserted: no client is ever dispatched after its retirement was
// sealed (Abandon returned and its in-flight draws quiesced), every
// stable client's detached submissions all ran, CheckInvariants stays
// green during and after the storm, and the audit windows kept
// closing with sane draw counts. Snapshots are rebuilt exactly when
// the pre-draw can use them: under the storm's deep backlog with more
// than one scheduler P, and never with one (run with -cpu 1,2 to cover
// both sides of the gate).
func TestLockFreeSnapshotStaleness(t *testing.T) {
	const (
		stablePerTenant = 3
		storms          = 4
		churnRounds     = 60
		stormDuration   = 1500 * time.Millisecond
	)
	var (
		sealMu sync.Mutex
		sealed = make(map[string]bool)
		counts = make(map[string]uint64)
	)
	var sealViolation atomic.Pointer[string]
	obs := ObserverFunc(func(ev Event) {
		if ev.Kind != EventDispatch {
			return
		}
		sealMu.Lock()
		counts[ev.Client]++
		if sealed[ev.Client] {
			name := ev.Client
			sealViolation.Store(&name)
		}
		sealMu.Unlock()
	})
	var windows atomic.Uint64
	aud := audit.New(audit.Config{
		WindowDraws: 4096,
		// Retargeting and Abandon churn mid-window make real share drift
		// legal here, and the auditor's drift alarm feeds CheckInvariants
		// via its registered check — so the tolerance is parked far out.
		// The storm exercises the window accounting, not the alarm.
		Tol: 5,
		OnWindow: func(rep audit.Report) {
			windows.Add(1)
			if rep.Draws == 0 {
				t.Errorf("audit window %d closed with zero draws", rep.Window)
			}
		},
	})
	d := New(Config{Workers: 4, Shards: 2, QueueCap: 4096, Seed: 11, Observer: obs, Audit: aud})
	defer d.Close()

	tenants := make([]*Tenant, 2)
	var stable []*Client
	ran := make(map[string]*atomic.Uint64)
	for ti := range tenants {
		tn, err := d.NewTenant(fmt.Sprintf("t%d", ti), 1000)
		if err != nil {
			t.Fatal(err)
		}
		tenants[ti] = tn
		for ci := 0; ci < stablePerTenant; ci++ {
			name := fmt.Sprintf("t%d/c%d", ti, ci)
			c, err := tn.NewClient(name, ticket.Amount(100*(ci+1)))
			if err != nil {
				t.Fatal(err)
			}
			stable = append(stable, c)
			ran[name] = new(atomic.Uint64)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var submitted [storms]uint64

	// Detached submit storms: the lock-free fast path under maximum
	// producer concurrency.
	for s := 0; s < storms; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := stable[s%len(stable)]
			hits := ran[c.Name()]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.SubmitDetached(func() { hits.Add(1) }); err != nil {
					t.Errorf("storm %d: %v", s, err)
					return
				}
				submitted[s]++
			}
		}(s)
	}

	// Ticket retargeting churn: every SetTickets bumps the weight
	// epoch and the home shard's tree generation, invalidating the
	// published draw snapshot mid-storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		amounts := []ticket.Amount{100, 400, 50, 250}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := stable[i%len(stable)]
			if err := c.SetTickets(amounts[i%len(amounts)]); err != nil {
				t.Errorf("retarget: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Join/Abandon churn: clients retire while snapshots naming them
	// may still be published. After Abandon returns and the client's
	// dispatch stream quiesces, seal it — any dispatch event after the
	// seal means a stale snapshot dispatched a retired client.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churnRounds; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i)
			c, err := tenants[i%2].NewClient(name, 300)
			if err != nil {
				t.Errorf("churn join: %v", err)
				return
			}
			for j := 0; j < 64; j++ {
				if err := c.SubmitDetached(func() {}); err != nil {
					t.Errorf("churn submit: %v", err)
					return
				}
			}
			time.Sleep(time.Millisecond)
			c.Abandon()
			// Quiesce: a task drawn just before Abandon has its dispatch
			// event emitted off-lock, so the event may trail Abandon's
			// return. Seal only after the client's event stream has been
			// silent for several consecutive readings; on a pathologically
			// stalled box, skip sealing rather than report a false race.
			var last uint64
			silent := 0
			deadline := time.Now().Add(2 * time.Second)
			for silent < 5 && time.Now().Before(deadline) {
				sealMu.Lock()
				n := counts[name]
				sealMu.Unlock()
				if n == last {
					silent++
				} else {
					silent = 0
					last = n
				}
				time.Sleep(5 * time.Millisecond)
			}
			if silent >= 5 {
				sealMu.Lock()
				sealed[name] = true
				sealMu.Unlock()
			}
		}
	}()

	// Invariant probe while the storm runs.
	probeDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				probeDone <- nil
				return
			default:
			}
			if err := CheckInvariants(d); err != nil {
				probeDone <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(stormDuration)
	close(stop)
	wg.Wait()
	if err := <-probeDone; err != nil {
		t.Fatalf("invariants during storm: %v", err)
	}
	// Drained means nothing queued or ringed AND every dispatched task
	// has settled: a task popped just before Pending hit zero may still
	// be running its body, and its execution-counter bump must land
	// before the executed-vs-submitted reconciliation below reads.
	waitUntil(t, "storm backlog drained", func() bool {
		if d.Pending() != 0 {
			return false
		}
		s := d.Snapshot()
		return s.Dispatched == s.Completed
	})
	if err := CheckInvariants(d); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	if v := sealViolation.Load(); v != nil {
		t.Fatalf("client %q dispatched after its retirement was sealed", *v)
	}
	var total uint64
	for s := 0; s < storms; s++ {
		total += submitted[s]
	}
	var executed uint64
	for _, hits := range ran {
		executed += hits.Load()
	}
	if executed != total {
		t.Fatalf("stable clients executed %d tasks, want %d (all submitted)", executed, total)
	}
	if total == 0 {
		t.Fatal("storm submitted nothing")
	}
	snap := d.Snapshot()
	t.Logf("storm: %d submitted, %d snapshot rebuilds, %d ring-full fallbacks, %d audit windows",
		total, snap.SnapshotRebuilds, snap.RingFull, windows.Load())
	switch {
	case d.predraw && snap.SnapshotRebuilds == 0:
		t.Error("retargeting churn never rebuilt a draw snapshot")
	case !d.predraw && snap.SnapshotRebuilds != 0:
		t.Errorf("%d draw snapshots rebuilt with pre-draws disabled (GOMAXPROCS 1)", snap.SnapshotRebuilds)
	}
}

// TestShallowQueueSkipsSnapshotRebuilds pins the rebuild gate: a
// closed-loop caller keeps at most one task queued, below the batching
// threshold where pre-draws engage, so no batch may pay for a draw
// snapshot nobody reads — even though every task makes its client join
// and leave the shard's tree.
func TestShallowQueueSkipsSnapshotRebuilds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := New(Config{Workers: 2, Shards: 1})
	defer d.Close()
	if !d.predraw {
		t.Fatal("pre-draw disabled at GOMAXPROCS 2")
	}
	c, err := d.NewClient("c", 100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		task, err := c.Submit(func() {})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.Snapshot()
	if snap.Dispatched != n {
		t.Fatalf("dispatched %d tasks, want %d", snap.Dispatched, n)
	}
	if snap.SnapshotRebuilds != 0 {
		t.Fatalf("%d draw snapshots rebuilt over %d one-deep dispatches, want 0", snap.SnapshotRebuilds, n)
	}
}
