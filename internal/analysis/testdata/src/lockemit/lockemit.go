// Package lockemit is the lockemit analyzer fixture: each line
// carrying a want comment must be flagged; everything else must not.
package lockemit

import (
	"sync"
	"time"
)

type event struct{ kind int }

type observer interface {
	Observe(event)
}

type dispatcher struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	obs  observer
	ch   chan int
	wg   sync.WaitGroup
}

// emitUnderLock is the canonical violation: emission inside the
// critical section.
func (d *dispatcher) emitUnderLock() {
	d.mu.Lock()
	d.obs.Observe(event{1}) // want "observer event emission"
	d.mu.Unlock()
	d.obs.Observe(event{2}) // fine: after the unlock
}

// emitUnderDeferredUnlock: defer Unlock holds the lock to the end.
func (d *dispatcher) emitUnderDeferredUnlock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.obs.Observe(event{3}) // want "observer event emission"
}

// channelOpsUnderLock: sends, receives, and selects block unboundedly
// while every other lock user waits.
func (d *dispatcher) channelOpsUnderLock() {
	d.mu.Lock()
	d.ch <- 1 // want "channel send"
	<-d.ch    // want "channel receive"
	select {  // want "select over channels"
	case v := <-d.ch:
		_ = v
	default:
	}
	d.mu.Unlock()
	d.ch <- 2 // fine: after the unlock
}

// blockingCallsUnderLock: time.Sleep and WaitGroup.Wait park the
// goroutine with the lock held.
func (d *dispatcher) blockingCallsUnderLock() {
	d.rw.Lock()
	time.Sleep(time.Millisecond) // want "blocking call time.Sleep"
	d.wg.Wait()                  // want "blocking call sync.WaitGroup.Wait"
	d.rw.Unlock()
}

// condWaitIsFine: sync.Cond.Wait releases the mutex internally — the
// one legitimate in-lock wait.
func (d *dispatcher) condWaitIsFine() {
	d.mu.Lock()
	d.cond.Wait()
	d.mu.Unlock()
}

// earlyUnlockBranch: the unlock inside the branch must not leak
// "unlocked" into the fallthrough path.
func (d *dispatcher) earlyUnlockBranch(done bool) {
	d.mu.Lock()
	if done {
		d.mu.Unlock()
		d.obs.Observe(event{4}) // fine: this branch unlocked first
		return
	}
	d.obs.Observe(event{5}) // want "observer event emission"
	d.mu.Unlock()
}

// goroutineStartsUnlocked: a goroutine launched under the lock does
// not itself hold it.
func (d *dispatcher) goroutineStartsUnlocked() {
	d.mu.Lock()
	go func() {
		d.obs.Observe(event{6}) // fine: new goroutine, lock not held
	}()
	d.mu.Unlock()
}

// immediatelyInvokedLiteralRunsLocked: an IIFE runs on this goroutine,
// under the lock.
func (d *dispatcher) immediatelyInvokedLiteralRunsLocked() {
	d.mu.Lock()
	func() {
		d.obs.Observe(event{7}) // want "observer event emission"
	}()
	d.mu.Unlock()
}

// rlockCountsToo: read locks also serialize against writers.
func (d *dispatcher) rlockCountsToo() {
	d.rw.RLock()
	d.obs.Observe(event{8}) // want "observer event emission"
	d.rw.RUnlock()
}

// workerLoop mirrors the rt worker shape: lock, pop, unlock, emit —
// the correct pattern, which must stay clean.
func (d *dispatcher) workerLoop() {
	for {
		d.mu.Lock()
		for len(d.ch) == 0 {
			d.cond.Wait()
		}
		d.mu.Unlock()
		d.obs.Observe(event{9}) // fine: emitted outside the lock
		return
	}
}

type shardFix struct {
	mu  sync.Mutex
	obs observer
}

type clientFix struct {
	sh  *shardFix
	obs observer
}

// shardHelperAcquires mirrors the rt shard-lock shape: the client's
// fixed home shard is loaded into a local and its mutex locked, which
// opens a critical section on sh.mu.
func (c *clientFix) shardHelperAcquires() {
	sh := c.sh
	sh.mu.Lock()
	c.obs.Observe(event{10}) // want "observer event emission"
	sh.mu.Unlock()
	c.obs.Observe(event{11}) // fine: shard lock released
}

// shardReacquireLoop mirrors the submit backpressure wait: unlock,
// block outside the lock, reacquire — the blocking receive must stay
// clean and the reacquired region must be checked.
func (c *clientFix) shardReacquireLoop(ch chan int) {
	sh := c.sh
	sh.mu.Lock()
	for i := 0; i < 2; i++ {
		sh.mu.Unlock()
		<-ch // fine: shard lock released across the wait
		sh.mu.Lock()
		c.obs.Observe(event{12}) // want "observer event emission"
	}
	sh.mu.Unlock()
}

// shardSettleShape is the correct runDrawn pattern: bookkeeping under
// the shard lock, emission after release.
func (c *clientFix) shardSettleShape() {
	sh := c.sh
	sh.mu.Lock()
	sh.mu.Unlock()
	c.obs.Observe(event{13}) // fine: emitted outside the shard lock
}

// shedCollectShape mirrors rt.Client.Shed: victims are unlinked from
// the queue under the shard lock, but their shed events are emitted
// only after release.
func (c *clientFix) shedCollectShape(n int) {
	sh := c.sh
	sh.mu.Lock()
	victims := make([]event, 0, n)
	for i := 0; i < n; i++ {
		victims = append(victims, event{14})
	}
	sh.mu.Unlock()
	for _, v := range victims {
		c.obs.Observe(v) // fine: emitted after the shard lock is gone
	}
}

// shedEmitUnderLock is the bug the shape above avoids: per-victim
// emission from inside the eviction loop, still under the shard lock.
func (c *clientFix) shedEmitUnderLock(n int) {
	sh := c.sh
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		c.obs.Observe(event{15}) // want "observer event emission"
	}
	sh.mu.Unlock()
}
