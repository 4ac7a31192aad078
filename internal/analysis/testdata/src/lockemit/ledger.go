package lockemit

// Fixtures mirroring internal/rt/resource's ledger discipline: victim
// selection for memory reclamation snapshots candidates under the
// ledger mutex, draws the inverse lottery unlocked, and re-validates
// the revocation under the mutex; reclaim/throttle hooks and waiter
// wakeups fire outside the lock. The correct shapes below must stay
// clean, and each way of collapsing the discipline must be flagged.

import "sync"

type victim struct {
	resident int64
	hook     observer
}

type ledgerFix struct {
	mu      sync.Mutex
	free    int64
	tenants []*victim
	grants  chan int64
	hook    observer
}

// reclaimDisciplined is the resource.Ledger shape: candidates are
// copied under the lock, the draw happens unlocked, the revocation is
// re-validated under the lock, and the hook fires after release.
func (l *ledgerFix) reclaimDisciplined(need int64) {
	l.mu.Lock()
	candidates := make([]*victim, len(l.tenants))
	copy(candidates, l.tenants)
	l.mu.Unlock()

	chosen := pickVictim(candidates) // fine: inverse lottery outside the lock

	l.mu.Lock()
	if chosen.resident >= need { // re-validate: residency may have moved
		chosen.resident -= need
		l.free += need
	}
	l.mu.Unlock()
	chosen.hook.Observe(event{20}) // fine: OnReclaim fires after release
}

// reclaimHookUnderLock collapses the discipline: the reclaim hook
// fires inside the critical section, so an unbounded hook stalls
// every acquire and release on the ledger.
func (l *ledgerFix) reclaimHookUnderLock(need int64) {
	l.mu.Lock()
	for _, v := range l.tenants {
		if v.resident >= need {
			v.resident -= need
			l.free += need
			v.hook.Observe(event{21}) // want "observer event emission"
			break
		}
	}
	l.mu.Unlock()
}

// grantWakeupUnderLock wakes an I/O waiter by channel send while the
// ledger mutex is held: if the waiter's receive is not ready, every
// ledger user blocks behind this send.
func (l *ledgerFix) grantWakeupUnderLock(tokens int64) {
	l.mu.Lock()
	l.free -= tokens
	l.grants <- tokens // want "channel send"
	l.mu.Unlock()
	l.grants <- tokens // fine: wakeup after release
}

// pumpDisciplined is the token-bucket pump shape: grants are decided
// under the lock, collected, and delivered after release.
func (l *ledgerFix) pumpDisciplined() {
	var granted []int64
	l.mu.Lock()
	for l.free > 0 {
		l.free--
		granted = append(granted, 1)
	}
	l.mu.Unlock()
	for _, g := range granted {
		l.grants <- g // fine: deliveries outside the lock
	}
}

// snapshotEmitsAfterCopy is the Snapshot shape: the copy happens under
// the lock, observation of the copy happens outside.
func (l *ledgerFix) snapshotEmitsAfterCopy() {
	l.mu.Lock()
	n := len(l.tenants)
	l.mu.Unlock()
	if n > 0 {
		l.hook.Observe(event{22}) // fine: lock released before emission
	}
}

// pickVictim stands in for the inverse-lottery draw; the analyzer only
// cares that it is called outside any critical section above.
func pickVictim(cands []*victim) *victim {
	best := cands[0]
	for _, v := range cands {
		if v.resident > best.resident {
			best = v
		}
	}
	return best
}
