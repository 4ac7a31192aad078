package rt

import "math"

// rebalanceSlack is the imbalance tolerance: the rebalancer acts only
// when the heaviest shard's published weight exceeds the lightest's
// by more than this fraction of the mean shard weight. Wide enough
// that ordinary weight churn (compensation boosts, short transfers)
// never triggers migration, tight enough that a persistent skew —
// e.g. every heavy client landing on one shard — is corrected within
// a period or two.
const rebalanceSlack = 0.25

// rebalanceOnce migrates clients from the heaviest to the lightest
// shard when their weights have drifted apart, and returns how many
// clients moved. Migration only rehomes bookkeeping — the client's
// tickets never leave the currency graph, so base-unit conservation
// (ticket.System.Check) is untouched by construction, and the
// client's queue, counters, and in-flight tasks move with it.
//
// Candidate selection is greedy: walk the heavy shard's roster moving
// any in-tree client whose weight fits in half the observed gap
// (moving more would overshoot and oscillate). A shard whose weight
// is concentrated in one giant client stays imbalanced — no split is
// possible, and the stride picker compensates by drawing from it
// proportionally more often anyway.
func (d *Dispatcher) rebalanceOnce() int {
	ns := len(d.shards)
	if ns < 2 {
		return 0
	}
	// Drain every shard's submit ring first: with all workers busy for
	// a whole period, ring-parked submissions have not reached any
	// queue or tree yet, and the published weights read below would
	// show a shard as empty when it has a ring backlog. The rebalancer
	// doubles as the liveness backstop that keeps tree membership (and
	// the weight hints) from going stale forever.
	for _, sh := range d.shards {
		sh.mu.Lock()
		acts := d.drainRingLocked(sh)
		sh.publishLocked()
		sh.mu.Unlock()
		d.finishActions(acts)
	}
	// Pick heaviest and lightest by the published weights; a stale
	// read just wastes (or skips) one pass.
	hi, lo := 0, 0
	whi, wlo := math.Inf(-1), math.Inf(1)
	total := 0.0
	for i, sh := range d.shards {
		w := sh.weightPub.Load()
		total += w
		if w > whi {
			hi, whi = i, w
		}
		if w < wlo {
			lo, wlo = i, w
		}
	}
	if hi == lo || whi <= 0 || whi-wlo <= rebalanceSlack*(total/float64(ns)) {
		return 0
	}
	src, dst := d.shards[hi], d.shards[lo]
	// Lock the pair in shard order (the only order any two shard
	// mutexes are ever held in).
	first, second := src, dst
	if dst.id < src.id {
		first, second = dst, src
	}
	first.mu.Lock()
	second.mu.Lock()
	// Drain the source ring before weighing queues: a migrated
	// client's ring backlog should move with its queue, not trickle in
	// later through the forwarding path (which costs an extra hop per
	// message). Messages for clients homed elsewhere forward now.
	acts := d.drainRingLocked(src)
	budget := (src.tree.Total() - dst.tree.Total()) / 2
	moved := 0
	for i := 0; i < len(src.clients); {
		c := src.clients[i]
		w := c.weight()
		if !c.inTree || w <= 0 || w > budget {
			i++
			continue
		}
		src.treeRemove(c.item)
		c.item = dst.treeAdd(c, w)
		q := c.pendingLocked()
		src.pending -= q
		dst.pending += q
		src.clients = append(src.clients[:i], src.clients[i+1:]...)
		dst.clients = append(dst.clients, c)
		c.sh.Store(dst)
		budget -= w
		moved++
	}
	if moved > 0 {
		// The destination tree now mixes weights computed against two
		// different epochs; forcing both shards stale makes their next
		// draw reweigh everything against the current graph.
		src.epoch--
		dst.epoch--
		d.rebalanced.Add(uint64(moved))
	}
	// Publish unconditionally: the drain alone may have changed the
	// source's pending count (and, via placement, its tree).
	src.publishLocked()
	dst.publishLocked()
	second.mu.Unlock()
	first.mu.Unlock()
	d.finishActions(acts)
	return moved
}
