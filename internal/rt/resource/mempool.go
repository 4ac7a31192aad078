package resource

import "repro/internal/lottery"

// reclaimEv is one revocation, recorded under the lock and handed to
// the OnReclaim hook after it is released.
type reclaimEv struct {
	tenant string
	bytes  int64
}

// acquireMem reserves n bytes for t, revoking victims' bytes while
// the free pool falls short. It never blocks: memory pressure is
// resolved immediately by §6.2 inverse lotteries, with over-dominant
// tenants victimized first (dominant-resource enforcement).
//
// Victim selection runs outside the pool lock: candidates and their
// weights are snapshotted under mu, the draw happens unlocked, and
// the revocation is re-validated against current residency after
// relocking (a stale winner yields a redraw). This is the
// lock-discipline port of internal/mem's selectVictim, which runs
// openly in a single-threaded simulation.
func (l *Ledger) acquireMem(t *Tenant, n int64) error {
	if n > l.memCap {
		return ErrMemCapacity
	}
	var (
		evs   []reclaimEv
		cands []*Tenant
		wts   []float64
		res   []int64
	)
	l.mu.Lock()
	for l.memFree < n {
		cands, wts, res = l.victimSetLocked(cands[:0], wts[:0], res[:0])
		if len(cands) == 0 {
			// Unreachable while the pool invariant holds: free < n <= cap
			// means someone is resident.
			panic("resource: memory pressure with no victim candidates")
		}
		l.mu.Unlock()
		v := cands[lottery.DrawVictim(l.rng, wts, res)]
		l.mu.Lock()
		take := n - l.memFree
		if take > v.memResident {
			take = v.memResident
		}
		if take <= 0 {
			continue // the winner was drained since the snapshot; redraw
		}
		v.memResident -= take
		l.memFree += take
		l.reclaims++
		v.memLost += take
		v.victimized++
		v.tm.reclaimed.Add(uint64(take))
		v.tm.victimized.Inc()
		v.pushMemLocked()
		evs = append(evs, reclaimEv{tenant: v.name, bytes: take})
	}
	l.memFree -= n
	t.memResident += n
	t.pushMemLocked()
	hook := l.onReclaim
	l.mu.Unlock()
	if hook != nil {
		for _, ev := range evs {
			hook(ev.tenant, ev.bytes)
		}
	}
	return nil
}

// releaseMem returns up to n bytes of t's residency to the free pool,
// clamped to what t still holds — an inverse lottery may already have
// revoked part of the reservation, and those bytes must not be freed
// twice.
func (l *Ledger) releaseMem(t *Tenant, n int64) {
	l.mu.Lock()
	if n > t.memResident {
		n = t.memResident
	}
	t.memResident -= n
	l.memFree += n
	t.pushMemLocked()
	l.mu.Unlock()
}

// victimSetLocked snapshots the inverse-lottery candidates: the
// over-dominant resident tenants if any exist (enforcement first),
// otherwise every resident tenant. Weights are the §6.2 inverse
// weights w_i = (1 - t_i/T) · m_i/M with T summed over the candidate
// set, exactly as internal/mem computes them; residencies ride along
// for the all-zero-weight fallback.
func (l *Ledger) victimSetLocked(cands []*Tenant, wts []float64, res []int64) ([]*Tenant, []float64, []int64) {
	for _, t := range l.tenants {
		if t.memResident > 0 && t.overDominantLocked() {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		for _, t := range l.tenants {
			if t.memResident > 0 {
				cands = append(cands, t)
			}
		}
	}
	var totalTickets float64
	for _, t := range cands {
		totalTickets += t.tickets
	}
	for _, t := range cands {
		share := 0.0
		if totalTickets > 0 {
			share = t.tickets / totalTickets
		}
		wts = append(wts, (1-share)*float64(t.memResident)/float64(l.memCap))
		res = append(res, t.memResident)
	}
	return cands, wts, res
}

// pushMemLocked refreshes the tenant's residency gauge, the pool's
// free gauge, and the share gauges after any residency change.
func (t *Tenant) pushMemLocked() {
	t.tm.resident.Set(float64(t.memResident))
	t.l.m.pushMemFree(t.l.memFree)
	t.pushSharesLocked()
}
