package rt

import (
	"sort"
	"time"

	"repro/internal/rt/resource"
)

// ClientSnapshot is one client's view in a Snapshot.
type ClientSnapshot struct {
	Name   string `json:"name"`
	Tenant string `json:"tenant"`
	// Shard is the dispatcher shard the client is homed on; a client
	// stays on the shard it was placed on at creation.
	Shard int `json:"shard"`
	// Funding is the client's current backing in base units (the
	// value it would compete with), reflecting any outstanding
	// transfers in or out.
	Funding float64 `json:"funding"`
	// EntitledShare is Funding over the sum of all clients' Funding.
	EntitledShare float64 `json:"entitled_share"`
	// AchievedShare is Dispatched over the dispatcher's total.
	AchievedShare float64 `json:"achieved_share"`
	Dispatched    uint64  `json:"dispatched"`
	Submitted     uint64  `json:"submitted"`
	Rejected      uint64  `json:"rejected"`
	// Cancelled counts tasks removed from the queue by submission-
	// context cancellation before any worker ran them.
	Cancelled uint64 `json:"cancelled"`
	// Shed counts tasks evicted while queued by overload load
	// shedding (Client.Shed), completed with ErrShed without running.
	Shed       uint64 `json:"shed"`
	Panics     uint64 `json:"panics"`
	QueueDepth int    `json:"queue_depth"`
	// Compensation is the client's current §3.4 multiplier (1 = none).
	Compensation float64 `json:"compensation"`
	// WaitP50/WaitP99 are enqueue-to-dispatch latency percentiles
	// over all of the client's dispatches, estimated from the same
	// log-bucketed histogram a /metrics scrape exports (constant ~2x
	// relative resolution; see metrics.Histogram.Quantile). A locked
	// submit waits from its enqueue; a ringed one from the latest
	// submit-side clock reading drained with or before it, or from its
	// drain when none was (see the package doc). The overload
	// controller's SLO loop reads the same histogram.
	WaitP50 time.Duration `json:"wait_p50_ns"`
	WaitP99 time.Duration `json:"wait_p99_ns"`
}

// Snapshot is a view of the dispatcher. Its counts are an exact cut:
// they are read with every shard lock held, so they all describe the
// same instant. In the cut are every per-client counter except Panics
// (Dispatched, Submitted, Rejected, Cancelled, Shed), QueueDepth and
// Compensation, the queued part of Pending, SnapshotRebuilds, and the
// dispatcher's Dispatched, Cancelled and Shed totals. Each total
// therefore equals the sum of its per-client column plus the counts of
// clients already torn down, and with no departed client the
// AchievedShare column sums to 1.
//
// Outside the cut, read without the shard locks: Completed, Panicked
// and Panics (workers count them after running the task), the ring
// part of Pending and RingFull (lock-free submitters), the wait
// quantiles, Funding and EntitledShare (valued afterwards under the
// graph lock), and Resources (the ledger's own lock). The shard locks
// are held only while the rows are copied.
type Snapshot struct {
	Workers int  `json:"workers"`
	Shards  int  `json:"shards"`
	Closed  bool `json:"closed"`
	Pending int  `json:"pending"`
	// SnapshotRebuilds counts lock-free draw snapshots rebuilt after a
	// tree change; its rate against Dispatched is the snapshot churn
	// (a high ratio means weight changes are outpacing draws and the
	// draw path is degrading to the locked tree). Snapshots are rebuilt
	// only by batches that could pre-draw from them, so it stays zero
	// below the batching threshold and with GOMAXPROCS 1.
	SnapshotRebuilds uint64 `json:"snapshot_rebuilds"`
	// RingFull counts submissions that found their shard's submit ring
	// full and fell back to the locked submit path.
	RingFull   uint64 `json:"ring_full"`
	Dispatched uint64 `json:"dispatched"`
	Completed  uint64 `json:"completed"`
	Panicked   uint64 `json:"panicked"`
	Cancelled  uint64 `json:"cancelled"`
	// Shed counts tasks evicted while queued by overload load shedding.
	Shed    uint64           `json:"shed"`
	Clients []ClientSnapshot `json:"clients"`
	// Resources is the multi-resource ledger's view (per-tenant usage,
	// shares, and dominant-resource accounting); nil when the
	// dispatcher was built without Config.Resources. It is captured
	// under the ledger's own lock, after the cut.
	Resources *resource.Snapshot `json:"resources,omitempty"`
}

// Snapshot captures the dispatcher's current state (see Snapshot for
// its consistency contract). Clients are sorted by name.
func (d *Dispatcher) Snapshot() Snapshot {
	s := Snapshot{
		Workers: d.workers,
		Shards:  len(d.shards),
		Closed:  d.closed.Load(),
	}

	// Phase 1: the cut. Copy the per-client rows and read the totals
	// with every shard lock held; all of them change only under a
	// shard lock.
	type row struct {
		c    *Client
		snap ClientSnapshot
	}
	rows := make([]row, 0, d.clientsN.Load())
	d.lockAllShards()
	for _, sh := range d.shards {
		for _, c := range sh.clients {
			rows = append(rows, row{c: c, snap: ClientSnapshot{
				Name:         c.name,
				Tenant:       c.tenant.name,
				Shard:        sh.id,
				Dispatched:   c.dispatchedN,
				Submitted:    c.submittedN,
				Rejected:     c.rejectedN,
				Cancelled:    c.cancelledN,
				Shed:         c.shedN,
				Panics:       c.panics.Load(),
				QueueDepth:   c.pendingLocked(),
				Compensation: c.comp,
			}})
		}
	}
	s.Pending = int(d.pendingAll())
	s.SnapshotRebuilds = d.snapRebuilds.Load()
	s.Dispatched = d.dispatched.Load()
	s.Cancelled = d.cancelled.Load()
	s.Shed = d.shed.Load()
	d.unlockAllShards()
	s.RingFull = d.ringFull.Load()
	s.Completed = d.completed.Load()
	s.Panicked = d.panicked.Load()
	if d.ledger != nil {
		rs := d.ledger.Snapshot()
		s.Resources = &rs
	}

	// Phase 2: value funding under the graph lock only. Entitlement is
	// the share each client would hold if every client were competing,
	// so idle holders are activated together before valuation (valuing
	// them one at a time would let each idle client claim its
	// currency's whole active amount). The graph ends in the exact
	// state it started in, so shard weight caches stay valid and no
	// reweigh is forced.
	fundings := make([]float64, len(rows))
	var totalFunding float64
	d.graphMu.Lock()
	var idle []*Client
	for _, r := range rows {
		if r.c.torn {
			continue
		}
		if !r.c.holder.Active() {
			r.c.holder.SetActive(true)
			idle = append(idle, r.c)
		}
	}
	for i, r := range rows {
		if r.c.torn {
			continue
		}
		fundings[i] = r.c.holder.Value()
		totalFunding += fundings[i]
	}
	for _, c := range idle {
		c.holder.SetActive(false)
	}
	d.graphMu.Unlock()

	// Phase 3: assemble outside every lock (quantile estimation walks
	// histogram buckets; the instruments themselves are atomic).
	s.Clients = make([]ClientSnapshot, 0, len(rows))
	for i, r := range rows {
		cs := r.snap
		cs.Funding = fundings[i]
		if totalFunding > 0 {
			cs.EntitledShare = fundings[i] / totalFunding
		}
		if s.Dispatched > 0 {
			cs.AchievedShare = float64(cs.Dispatched) / float64(s.Dispatched)
		}
		if r.c.waitHist.Count() > 0 {
			cs.WaitP50 = secToDur(r.c.waitHist.Quantile(50))
			cs.WaitP99 = secToDur(r.c.waitHist.Quantile(99))
		}
		s.Clients = append(s.Clients, cs)
	}
	sort.Slice(s.Clients, func(i, j int) bool { return s.Clients[i].Name < s.Clients[j].Name })
	return s
}

func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
