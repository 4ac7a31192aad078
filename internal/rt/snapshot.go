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
	// Shard is the dispatcher shard the client was homed on when the
	// snapshot visited it (the rebalancer may move it later).
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
	// relative resolution; see metrics.Histogram.Quantile).
	WaitP50 time.Duration `json:"wait_p50_ns"`
	WaitP99 time.Duration `json:"wait_p99_ns"`
}

// Snapshot is a view of the dispatcher. Since the dispatcher went
// multi-shard the view is eventually consistent rather than atomic:
// per-client stats are collected one shard at a time (each shard's
// rows are internally consistent), the funding valuation happens
// afterwards under the graph lock, and dispatcher totals are atomic
// counter reads — so counts taken while work is in flight may
// disagree by the few tasks that moved between phases. Dispatch is
// never stalled for the duration of a snapshot the way the old
// single-lock capture did.
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
	RingFull uint64 `json:"ring_full"`
	// Rebalances counts clients migrated between shards by the weight
	// rebalancer since the dispatcher started.
	Rebalances uint64 `json:"rebalances"`
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
	// under the ledger's own lock, with the same eventual-consistency
	// caveat against the per-client rows as the other phases.
	Resources *resource.Snapshot `json:"resources,omitempty"`
}

// Snapshot captures the dispatcher's current state (see Snapshot for
// its consistency contract). Clients are sorted by name.
func (d *Dispatcher) Snapshot() Snapshot {
	s := Snapshot{
		Workers:          d.workers,
		Shards:           len(d.shards),
		Closed:           d.closed.Load(),
		Pending:          int(d.pendingAll()),
		SnapshotRebuilds: d.snapRebuilds.Load(),
		RingFull:         d.ringFull.Load(),
		Rebalances:       d.rebalanced.Load(),
		Dispatched:       d.dispatched.Load(),
		Completed:        d.completed.Load(),
		Panicked:         d.panicked.Load(),
		Cancelled:        d.cancelled.Load(),
		Shed:             d.shed.Load(),
	}
	if d.ledger != nil {
		rs := d.ledger.Snapshot()
		s.Resources = &rs
	}

	// Phase 1: copy per-client stats shard by shard, holding only that
	// shard's mutex. A client migrating concurrently could be seen in
	// two rosters (or neither); the seen-set drops duplicates and a
	// miss is just staleness.
	type row struct {
		c    *Client
		snap ClientSnapshot
	}
	var rows []row
	seen := make(map[*Client]bool)
	for _, sh := range d.shards {
		sh.mu.Lock()
		for _, c := range sh.clients {
			if seen[c] {
				continue
			}
			seen[c] = true
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
		sh.mu.Unlock()
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
