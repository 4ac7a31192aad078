package lottery

import (
	"math"
	"sync/atomic"
)

// AtomicTotal publishes a Tree's total weight (the root partial sum)
// for lock-free readers. A sharded scheduler keeps one Tree per shard
// behind that shard's mutex and mirrors each tree's Total into an
// AtomicTotal, so a cross-shard policy (a top-level lottery or stride
// over shards) can weigh shards against each other without touching
// any shard lock. Writers store under the shard lock; readers may load
// at any time and observe the most recent published value.
//
// The zero value publishes 0.
type AtomicTotal struct {
	bits atomic.Uint64
}

// Store publishes w.
func (a *AtomicTotal) Store(w float64) { a.bits.Store(math.Float64bits(w)) }

// Load returns the most recently published total.
func (a *AtomicTotal) Load() float64 { return math.Float64frombits(a.bits.Load()) }
