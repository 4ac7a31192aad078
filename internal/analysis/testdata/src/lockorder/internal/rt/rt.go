// Package rt mimics the runtime's lock classes under a fixture path:
// the package path ends in "internal/rt", so shard.mu and
// Dispatcher.graphMu here resolve to the same declared ranks the real
// runtime's locks do — this fixture proves the global order table is
// machine-enforced, not just documented.
package rt

import "sync"

type shard struct {
	mu   sync.Mutex
	work int
}

type Dispatcher struct {
	graphMu sync.RWMutex
	shards  []*shard
	weight  int
}

// reweigh follows the declared order — a shard's mu may be held when
// taking graphMu: silent.
func (d *Dispatcher) reweigh(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d.graphMu.Lock()
	d.weight++
	d.graphMu.Unlock()
}

// invert violates it — graphMu held while acquiring a shard mu is the
// reverse of the declared rt order and deadlocks against reweigh.
func (d *Dispatcher) invert(sh *shard) {
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	sh.mu.Lock() // want "against the declared lock order"
	sh.work++
	sh.mu.Unlock()
}

// invertViaHelper is the same inversion one call deep: the diagnostic
// must carry the witness path through lockFirst.
func (d *Dispatcher) lockFirst() {
	sh := d.shards[0]
	sh.mu.Lock()
	sh.work++
	sh.mu.Unlock()
}

func (d *Dispatcher) invertViaHelper() {
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	d.lockFirst() // want "against the declared lock order"
}

// lockPair holds two shard mus at once: shard.mu is declared
// multi-instance (ascending-id discipline by construction), so this is
// silent.
func (d *Dispatcher) lockPair(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock()
	a.work, b.work = b.work, a.work
	b.mu.Unlock()
	a.mu.Unlock()
}
