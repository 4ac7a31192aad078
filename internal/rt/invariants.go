package rt

import (
	"fmt"
	"math"

	"repro/internal/lottery"
	"repro/internal/rt/resource"
)

// CheckInvariants verifies the dispatcher's cross-layer invariants
// and returns the first violation, or nil. It composes the layers'
// own checkers — ticket.System.Check (funding-graph acyclicity,
// activation propagation, base-unit conservation) and
// lottery.CheckTree (partial-sum integrity, run per shard) — with the
// dispatcher's bridging contracts:
//
//   - each shard's pending count equals its summed client queue
//     depths, and the shards sum to the dispatcher total;
//   - each shard's published pending count and total weight match the
//     values under its lock;
//   - each shard's ring backlog counter is non-negative, and every
//     client's admitted-depth counter covers at least its queued
//     tasks (the excess is its in-ring backlog);
//   - a shard's published draw snapshot, when current (its generation
//     equals the tree's), lists exactly in-tree clients homed on the
//     shard with non-decreasing cumulative weights whose total
//     matches the tree's;
//   - a client competes in its shard's tree exactly when it has
//     queued work, its holder is active exactly then (§4.4), and it
//     is homed on the shard whose roster holds it;
//   - compensation multipliers stay within [1, MaxCompensation]
//     (§3.4: a boost is bounded and consumed on the next win);
//   - no torn-down client lingers in any roster, and every tenant's
//     live client count matches the rosters;
//   - on a shard whose weight epoch is current, every in-tree weight
//     (and the cached funding value behind it) equals the client's
//     funding times its compensation multiplier;
//   - completions never outrun dispatches, and no client's
//     dispatched+cancelled+shed ledger exceeds its submissions;
//   - with a resource ledger configured, resource.CheckLedger's pool
//     and usage conservation invariants hold too;
//   - every external check registered with AddCheck passes (run after
//     the sweep, outside all dispatcher locks — the overload
//     controller registers its inflation-conservation check here).
//
// Safe for concurrent use; it locks every shard (in shard order) plus
// the ticket graph for the whole check, so treat it as a
// stop-the-world probe for tests, fuzzing, and the lotterydebug build
// (which runs it after every completion, cancellation and shed).
func CheckInvariants(d *Dispatcher) error {
	d.lockAllShards()
	d.graphMu.Lock()
	err := d.checkInvariantsLocked()
	d.graphMu.Unlock()
	d.unlockAllShards()
	if err == nil && d.ledger != nil {
		// The ledger has its own lock, below every dispatcher lock in
		// the order; checking it after the dispatcher sweep keeps the
		// probe one-pass without nesting the ledger under the shards.
		err = resource.CheckLedger(d.ledger)
	}
	if err == nil {
		// External checks run last, outside every dispatcher lock, so
		// they may call back into the dispatcher (Snapshot, Funding,
		// the overload controller's own state) freely.
		d.checksMu.Lock()
		checks := make([]func() error, len(d.checks))
		copy(checks, d.checks)
		d.checksMu.Unlock()
		for _, fn := range checks {
			if cerr := fn(); cerr != nil {
				return fmt.Errorf("rt: registered check failed: %w", cerr)
			}
		}
	}
	return err
}

// checkInvariantsLocked runs the sweep with every shard mutex and the
// graph lock held.
func (d *Dispatcher) checkInvariantsLocked() error {
	if err := d.tickets.Check(); err != nil {
		return err
	}
	epoch := d.weightEpoch.Load()
	totalPending, totalClients := 0, 0
	tenants := make(map[*Tenant]int)
	for _, sh := range d.shards {
		if err := lottery.CheckTree(sh.tree); err != nil {
			return fmt.Errorf("rt: shard %d: %w", sh.id, err)
		}
		if got := sh.pendingPub.Load(); got != int64(sh.pending) {
			return fmt.Errorf("rt: shard %d published pending %d != actual %d", sh.id, got, sh.pending)
		}
		if got, want := sh.weightPub.Load(), sh.tree.Total(); got != want {
			return fmt.Errorf("rt: shard %d published weight %v != tree total %v", sh.id, got, want)
		}
		if rp := sh.ringPending.Load(); rp < 0 {
			return fmt.Errorf("rt: shard %d ring backlog %d negative", sh.id, rp)
		}
		if snap := sh.snap.Load(); snap != nil && snap.gen == sh.treeGen {
			if len(snap.clients) != len(snap.cum) {
				return fmt.Errorf("rt: shard %d snapshot has %d clients but %d sums",
					sh.id, len(snap.clients), len(snap.cum))
			}
			prev := 0.0
			for i, sc := range snap.clients {
				if !sc.inTree {
					return fmt.Errorf("rt: shard %d current snapshot lists non-competing client %q", sh.id, sc.name)
				}
				if sc.sh != sh {
					return fmt.Errorf("rt: shard %d current snapshot lists client %q homed elsewhere", sh.id, sc.name)
				}
				// Non-decreasing, not strictly: a weight smaller than the
				// running total's ulp adds zero width (such a client just
				// cannot win off this snapshot, which is fair to within
				// float resolution).
				if snap.cum[i] < prev {
					return fmt.Errorf("rt: shard %d snapshot sums decrease at %d", sh.id, i)
				}
				prev = snap.cum[i]
			}
			if math.Abs(snap.total-prev) > 1e-9*math.Max(math.Abs(prev), 1) {
				return fmt.Errorf("rt: shard %d snapshot total %v != last cumulative sum %v", sh.id, snap.total, prev)
			}
			if want := sh.tree.Total(); math.Abs(snap.total-want) > 1e-9*math.Max(math.Abs(want), 1) {
				return fmt.Errorf("rt: shard %d current snapshot total %v != tree total %v", sh.id, snap.total, want)
			}
		}
		fresh := sh.epoch == epoch
		pending, inTree := 0, 0
		for _, c := range sh.clients {
			depth := c.pendingLocked()
			if depth < 0 {
				return fmt.Errorf("rt: client %q has negative queue depth %d", c.name, depth)
			}
			if adm := c.depth.Load(); adm < int64(depth) {
				return fmt.Errorf("rt: client %q admitted depth %d < queued %d", c.name, adm, depth)
			}
			pending += depth
			if c.torn {
				return fmt.Errorf("rt: torn-down client %q still in shard %d's roster", c.name, sh.id)
			}
			// Inequality, not equality: discardQueued and Abandon drop
			// queued tasks without a dedicated counter.
			if done := c.dispatchedN + c.cancelledN + c.shedN; done > c.submittedN {
				return fmt.Errorf("rt: client %q dispatched+cancelled+shed %d > submitted %d",
					c.name, done, c.submittedN)
			}
			if c.sh != sh {
				return fmt.Errorf("rt: client %q in shard %d's roster but homed elsewhere", c.name, sh.id)
			}
			tenants[c.tenant]++
			if c.inTree != (depth > 0) {
				return fmt.Errorf("rt: client %q inTree=%v with queue depth %d", c.name, c.inTree, depth)
			}
			if got := c.holder.Active(); got != c.inTree {
				return fmt.Errorf("rt: client %q holder active=%v but inTree=%v", c.name, got, c.inTree)
			}
			if c.comp < 1 || c.comp > d.maxComp || math.IsNaN(c.comp) {
				return fmt.Errorf("rt: client %q compensation %v outside [1, %v]", c.name, c.comp, d.maxComp)
			}
			if c.inTree {
				inTree++
				if fresh {
					val := c.holder.Value()
					if math.Abs(c.fundingVal-val) > 1e-9*math.Max(math.Abs(val), 1) {
						return fmt.Errorf("rt: client %q cached funding %v != holder value %v (epoch fresh)",
							c.name, c.fundingVal, val)
					}
					want := val * c.comp
					got := sh.tree.Weight(c.item)
					if math.Abs(got-want) > 1e-9*math.Max(math.Abs(want), 1) {
						return fmt.Errorf("rt: client %q tree weight %v != funding*comp %v (epoch fresh)",
							c.name, got, want)
					}
				}
			}
		}
		if pending != sh.pending {
			return fmt.Errorf("rt: shard %d pending %d != summed queue depths %d", sh.id, sh.pending, pending)
		}
		if got := sh.tree.Len(); got != inTree {
			return fmt.Errorf("rt: shard %d tree holds %d entries but %d clients are marked in-tree",
				sh.id, got, inTree)
		}
		totalPending += sh.pending
		totalClients += len(sh.clients)
	}
	if got := d.totalPending.Load(); got != int64(totalPending) {
		return fmt.Errorf("rt: dispatcher pending %d != summed shard pending %d", got, totalPending)
	}
	if got := d.clientsN.Load(); got != int64(totalClients) {
		return fmt.Errorf("rt: dispatcher client count %d != summed rosters %d", got, totalClients)
	}
	for tn, n := range tenants {
		if tn.clients != n {
			return fmt.Errorf("rt: tenant %q counts %d clients, rosters have %d", tn.name, tn.clients, n)
		}
	}
	if dispatched, completed := d.dispatched.Load(), d.completed.Load(); completed > dispatched {
		return fmt.Errorf("rt: completed %d > dispatched %d", completed, dispatched)
	}
	return nil
}
