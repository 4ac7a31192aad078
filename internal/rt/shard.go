package rt

import (
	"sync"
	"sync/atomic"

	"repro/internal/lottery"
	"repro/internal/metrics"
	"repro/internal/random"
)

// shard is one slice of the dispatcher: a subset of the clients, their
// queues, and a private lottery tree, all behind the shard's own
// mutex. Submits, draws, and weight updates for a client touch only
// that client's shard, so clients on different shards never contend.
//
// Each shard publishes its pending count and total tree weight into
// atomics (pendingPub, weightPub) before releasing its mutex after any
// change, so the inter-shard picker and the rebalancer can weigh
// shards against each other without taking any shard lock.
//
// Lock order: shard.mu → graphMu. Multiple shard mutexes are only ever
// held together in ascending shard-id order (rebalancer, invariant
// sweep). The shard never emits events or blocks while holding mu.
type shard struct {
	d  *Dispatcher
	id int

	mu      sync.Mutex
	tree    *lottery.Tree[*Client]
	rng     *random.PM // guarded by mu
	clients []*Client  // roster of clients homed on this shard
	pending int        // queued tasks across the shard's clients

	// rr is the rotation cursor for the zero-total-weight fallback:
	// with no funded pending client on the shard, service degrades to
	// round-robin over the in-tree clients rather than starving all
	// but one.
	rr int

	// epoch is the dispatcher weightEpoch this shard's tree weights
	// were last computed against. Ticket-graph mutations bump the
	// dispatcher epoch; the next draw on a stale shard refreshes every
	// in-tree weight once, amortizing reweighs across mutations (the
	// sharded successor of the old weightsDirty flag).
	epoch uint64

	// treeGen counts this shard's tree mutations (every Add, Update,
	// and Remove goes through the treeAdd/treeUpdate/treeRemove
	// helpers). It is the validity token for lock-free draw snapshots:
	// a candidate drawn from a snapshot wins only if the snapshot's
	// generation still equals treeGen under the lock. Guarded by mu.
	treeGen uint64

	// snapGen is the generation of the currently published snapshot;
	// a batch that could pre-draw rebuilds when it trails treeGen.
	// Guarded by mu.
	snapGen uint64

	// snap is the RCU-published flattened view of the tree that workers
	// draw candidates from without the lock; see drawSnap.
	snap atomic.Pointer[drawSnap]

	// snapCool is the off-lock pre-draw hysteresis: drawBatch arriving
	// at a stale snapshot resets it to snapCoolTrial, a fresh arrival
	// decrements it, and workers pre-draw candidates only at zero — the
	// snapshot must stay warm for snapCoolTrial consecutive batches
	// before draws move off the locked tree. Membership-churny
	// workloads (many shallow queues emptying and refilling) therefore
	// stay on the locked path, whose draw timing the windowed fairness
	// tests are calibrated against; steady deep-backlog dispatch warms
	// up within a few batches and keeps the off-lock draws. Mutated
	// only under mu; atomic because the pre-draw decision reads it
	// before locking.
	snapCool atomic.Int32

	// ring is the shard's MPSC submit ring: the lock-free fast path of
	// Submit/SubmitDetached publishes here and workers drain it into
	// the client queues under mu.
	ring ring

	// ringPending counts messages published to ring but not yet drained
	// (incremented by producers before publish, decremented by the
	// consumer at pop). Together with the dispatcher's totalPending it
	// forms the park/exit condition: pendingAll never undercounts live
	// work.
	ringPending atomic.Int64

	// Published views of pending and tree.Total(), stored before every
	// unlock that changed them. Readers may see values at most one
	// critical section old.
	pendingPub atomic.Int64
	weightPub  lottery.AtomicTotal

	// Optional per-shard gauges (nil without a metrics registry);
	// pushed from publishLocked, both are single atomic stores.
	mWeight  *metrics.Gauge
	mPending *metrics.Gauge
}

// hasWork reports whether the shard has anything for a worker to do:
// queued tasks, or ring messages still waiting to be drained.
func (sh *shard) hasWork() bool {
	return sh.pendingPub.Load() > 0 || sh.ringPending.Load() > 0
}

// treeAdd, treeUpdate, and treeRemove wrap every tree mutation so the
// generation counter can never miss one; a missed bump would let a
// stale snapshot validate and dispatch a client that no longer
// competes.
func (sh *shard) treeAdd(c *Client, w float64) lottery.TreeItem {
	sh.treeGen++
	return sh.tree.Add(c, w)
}

func (sh *shard) treeUpdate(item lottery.TreeItem, w float64) {
	sh.treeGen++
	sh.tree.Update(item, w)
}

func (sh *shard) treeRemove(item lottery.TreeItem) {
	sh.treeGen++
	sh.tree.Remove(item)
}

// publishLocked mirrors the shard's pending count and tree total into
// their lock-free views. Call before unlocking after any change to
// either.
func (sh *shard) publishLocked() {
	sh.pendingPub.Store(int64(sh.pending))
	total := sh.tree.Total()
	sh.weightPub.Store(total)
	if sh.mWeight != nil {
		sh.mWeight.Set(total)
		sh.mPending.Set(float64(sh.pending))
	}
}

// reweighLocked refreshes every in-tree weight if the ticket graph
// changed since this shard last looked (any mutation can move value
// between clients, even across currencies). The graph lock is taken
// only on the stale path, so a saturated steady state draws without
// ever touching it.
func (sh *shard) reweighLocked() {
	e := sh.d.weightEpoch.Load()
	if sh.epoch == e {
		return
	}
	sh.d.graphMu.Lock()
	for _, c := range sh.clients {
		if c.inTree {
			c.fundingVal = c.holder.Value()
		}
	}
	sh.d.graphMu.Unlock()
	for _, c := range sh.clients {
		if c.inTree {
			sh.treeUpdate(c.item, c.weight())
		}
	}
	sh.epoch = e
}

// nextPendingLocked rotates round-robin among the clients currently in
// the shard's tree. It is the zero-total-weight fallback; always
// returning the earliest-created client here would starve every other
// pending client.
func (sh *shard) nextPendingLocked() *Client {
	n := len(sh.clients)
	if n == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		c := sh.clients[(sh.rr+i)%n]
		if c.inTree {
			sh.rr = (sh.rr + i + 1) % n
			return c
		}
	}
	return nil
}

func (sh *shard) removeClientLocked(c *Client) {
	for i, x := range sh.clients {
		if x == c {
			sh.clients = append(sh.clients[:i], sh.clients[i+1:]...)
			return
		}
	}
}

// lockShard locks and returns the client's current home shard. The
// rebalancer may migrate a client between loading the pointer and
// acquiring the mutex, so the home is re-checked under the lock
// (migration happens with both shard locks held, making the check
// race-free). On return the shard's mutex is held and the client is
// pinned to it until the caller unlocks.
func (c *Client) lockShard() *shard {
	for {
		sh := c.sh.Load()
		sh.mu.Lock()
		if c.sh.Load() == sh {
			return sh
		}
		sh.mu.Unlock()
	}
}
