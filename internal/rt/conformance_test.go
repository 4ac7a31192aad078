package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/ticket"
)

// TestShareConformance is the wall-clock analog of the paper's
// Figure 1 check: with every client backlogged for the whole
// measurement window, long-run dispatch counts must match ticket
// ratios — within 5% relative error per client and collectively
// unsurprising under chi-square — through a static phase and a
// dynamic join/leave phase.
//
// The dispatcher drains queues as fast as feeder goroutines can fill
// them on a small machine, so building the backlog concurrently with
// dispatching would leave only the last-filled client with queued
// work. Instead both workers are parked on blocking gate tasks while
// the backlogs are built: the window then opens on a full, constant
// tree and the winner sequence is exactly the seeded Park-Miller
// stream, independent of goroutine interleaving. Backlogs are deep
// enough that no client empties mid-window (asserted), so the tree
// stays constant even if the window overshoots its target. Each window
// also closes with the workers parked: Snapshot reads the shards one
// at a time, and while workers run a shard read early misses draws
// that a shard read late includes, so the closing counts are taken
// only once no draw can land between the shard reads.
func TestShareConformance(t *testing.T) {
	const (
		phaseDraws = 50000
		backlog    = 100000 // deep enough that no client drains mid-window
		relTol     = 0.05
	)
	d := New(Config{Workers: 2, QueueCap: backlog, Seed: 42})
	defer d.Close()

	fill := func(c *Client, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Submit(func() {}); err != nil {
				t.Fatalf("fill %s: %v", c.Name(), err)
			}
		}
	}

	// park stalls every worker on a blocking task from a massively
	// funded gate client (it wins the next draws almost surely even
	// with other clients competing), so backlogs can be rebuilt without
	// the pool draining them concurrently. Gate tasks are submitted one
	// at a time, each waiting until the task has actually started
	// running: with batched draws, two gate tasks submitted together
	// would likely land in one worker's batch and pin one worker
	// instead of two. Batch-mates drawn alongside a gate task are
	// already counted as dispatched, so they cannot distort a window
	// measured from a later baseline. Returns the release function.
	park := func(name string) (release func()) {
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

	release1 := park("gate1")
	amounts := map[string]ticket.Amount{"A": 100, "B": 200, "C": 300, "D": 400}
	clients := make(map[string]*Client)
	for _, name := range []string{"A", "B", "C", "D"} {
		c, err := d.NewClient(name, amounts[name])
		if err != nil {
			t.Fatal(err)
		}
		clients[name] = c
		fill(c, backlog)
	}

	// waitDispatched spins (no sleep: on one CPU a sleeping poller can
	// wake tens of milliseconds — hence tens of thousands of draws —
	// late) until the all-time dispatch count reaches target. The
	// window closes after it, at the next park.
	waitDispatched := func(target uint64) {
		deadline := time.Now().Add(2 * time.Minute)
		for i := 0; d.dispatched.Load() < target; i++ {
			if i%4096 == 0 && time.Now().After(deadline) {
				t.Fatalf("stalled at %d/%d dispatches", d.dispatched.Load(), target)
			}
			runtime.Gosched()
		}
	}

	counts := func(s Snapshot) map[string]uint64 {
		out := make(map[string]uint64)
		for _, c := range s.Clients {
			out[c.Name] = c.Dispatched
		}
		return out
	}

	// delta returns per-client dispatch counts between two snapshots.
	delta := func(from, to map[string]uint64, names ...string) map[string]uint64 {
		out := make(map[string]uint64)
		for _, n := range names {
			out[n] = to[n] - from[n]
		}
		return out
	}

	// requireBacklogged fails if any named client emptied its queue
	// during the window — that would mean the tree was not constant and
	// the proportional-share premise did not hold.
	requireBacklogged := func(phase string, s Snapshot, names ...string) {
		t.Helper()
		depth := make(map[string]int)
		for _, c := range s.Clients {
			depth[c.Name] = c.QueueDepth
		}
		for _, n := range names {
			if depth[n] == 0 {
				t.Fatalf("%s: client %s drained its backlog mid-window; deepen backlog", phase, n)
			}
		}
	}

	checkPhase := func(phase string, got map[string]uint64, entitled map[string]ticket.Amount) {
		t.Helper()
		var total uint64
		var totalTickets ticket.Amount
		for _, n := range got {
			total += n
		}
		for _, a := range entitled {
			totalTickets += a
		}
		observed := make([]int, 0, len(entitled))
		expected := make([]float64, 0, len(entitled))
		for name, a := range entitled {
			achieved := float64(got[name]) / float64(total)
			want := float64(a) / float64(totalTickets)
			rel := achieved/want - 1
			t.Logf("%s %s: %d dispatches, achieved %.4f, entitled %.4f (rel err %+.3f)",
				phase, name, got[name], achieved, want, rel)
			if rel < -relTol || rel > relTol {
				t.Errorf("%s client %s: achieved share %.4f vs entitled %.4f exceeds %.0f%% relative error",
					phase, name, achieved, want, relTol*100)
			}
			observed = append(observed, int(got[name]))
			expected = append(expected, want*float64(total))
		}
		chi2, err := stats.ChiSquare(observed, expected)
		if err != nil {
			t.Fatal(err)
		}
		if crit := stats.ChiSquareCritical999(len(observed) - 1); chi2 > crit {
			t.Errorf("%s chi-square %.2f exceeds 99.9%% critical value %.2f", phase, chi2, crit)
		}
	}

	// requireInvariants sweeps the full invariant set (tree partial
	// sums, funding-graph conservation, dispatcher bookkeeping) at the
	// phase boundaries, where churn from park/fill/Leave is freshest.
	requireInvariants := func(phase string) {
		t.Helper()
		if err := CheckInvariants(d); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}

	// Static phase: A:B:C:D = 1:2:3:4 over at least phaseDraws
	// dispatches, measured from a baseline taken while the workers are
	// still parked (so the window contains only full-tree draws).
	requireInvariants("static setup")
	base1s := d.Snapshot()
	base1 := counts(base1s)
	release1()
	waitDispatched(base1s.Dispatched + phaseDraws)
	release2 := park("gate2") // exact cut: no draws during the Snapshot
	s1 := d.Snapshot()
	requireInvariants("static window")
	requireBacklogged("static", s1, "A", "B", "C", "D")
	checkPhase("static", delta(base1, counts(s1), "A", "B", "C", "D"), amounts)

	// Dynamic phase: E joins with 500 tickets, A leaves immediately
	// (queued work discarded). The workers are still parked from the
	// static window's close while E fills and B, C, and D are topped
	// back up to a full backlog.
	// Checking only B, C, and E against the ratio 2:3:5 keeps the phase
	// valid whether or not D's residual backlog survives the window:
	// conditional shares among B, C, and E are 2:3:5 with or without D
	// competing.
	e, err := d.NewClient("E", 500)
	if err != nil {
		t.Fatal(err)
	}
	fill(e, backlog)
	depth := make(map[string]int)
	for _, c := range d.Snapshot().Clients {
		depth[c.Name] = c.QueueDepth
	}
	for _, name := range []string{"B", "C", "D"} {
		fill(clients[name], backlog-depth[name])
	}
	clients["A"].Abandon()

	base2s := d.Snapshot()
	base2 := counts(base2s)
	if _, ok := base2["A"]; ok {
		t.Error("abandoned client A still present in snapshot")
	}
	release2()
	waitDispatched(base2s.Dispatched + phaseDraws)
	release3 := park("gate3")
	s2 := d.Snapshot()
	release3()
	requireInvariants("dynamic window")
	requireBacklogged("dynamic", s2, "B", "C", "E")
	got2 := counts(s2)
	if a1, a2 := base2["A"], got2["A"]; a2 > a1 {
		t.Errorf("abandoned client A gained %d dispatches", a2-a1)
	}
	checkPhase("dynamic", delta(base2, got2, "B", "C", "E"),
		map[string]ticket.Amount{"B": 200, "C": 300, "E": 500})
}
