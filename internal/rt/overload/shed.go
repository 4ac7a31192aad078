package overload

import (
	"repro/internal/lottery"
	"repro/internal/rt"
)

// shedLocked drains the backlog to the low watermark by inverse
// lottery when a watermark is crossed. Called with c.mu held; each
// draw's eviction (Client.Shed) takes shard locks beneath it and
// emits its events outside them.
func (c *Controller) shedLocked() {
	c.shedding = false
	need := c.excessLocked()
	if need <= 0 {
		return
	}
	c.shedding = true
	for need > 0 {
		cands, wts, depths := c.victimSetLocked()
		if len(cands) == 0 {
			return
		}
		v := cands[lottery.DrawVictim(c.rng, wts, depths)]
		k := c.cfg.ShedChunk
		if k > need {
			k = need
		}
		// Evict from the victim tenant's deepest queue: with one client
		// per tenant (the daemon's shape) that is the only queue; with
		// several it drains the most backlogged first.
		var deepest *shedClient
		for i := range v.clis {
			if deepest == nil || v.clis[i].depth > deepest.depth {
				deepest = &v.clis[i]
			}
		}
		shed := deepest.c.Shed(k)
		if shed == 0 {
			// The queue drained between the snapshot and the eviction;
			// re-derive the backlog rather than spinning on stale counts.
			need = c.excessLocked()
			continue
		}
		v.ts.shed += uint64(shed)
		c.shedTotal += uint64(shed)
		need -= shed
	}
}

// excessLocked returns how many queued tasks stand above the low
// watermark if a shed trigger is active, else 0. Backlog pressure
// uses the dispatcher-wide queue count; memory pressure the ledger's
// free fraction.
func (c *Controller) excessLocked() int {
	backlog := c.d.Pending()
	trigger := c.cfg.HighWatermark > 0 && backlog > c.cfg.HighWatermark
	if !trigger && c.cfg.MemHighWatermark > 0 {
		if l := c.d.Ledger(); l != nil {
			snap := l.Snapshot()
			if snap.MemCapacity > 0 {
				inUse := 1 - float64(snap.MemFree)/float64(snap.MemCapacity)
				trigger = inUse > c.cfg.MemHighWatermark
			}
		}
	}
	if !trigger {
		return 0
	}
	excess := backlog - c.cfg.LowWatermark
	if excess < 0 {
		return 0
	}
	return excess
}

// shedVictim is one inverse-lottery candidate: a registered tenant
// with queued work, with its clients' queue depths snapshotted.
type shedVictim struct {
	ts    *tenantState
	clis  []shedClient
	depth int
}

type shedClient struct {
	c     *rt.Client
	depth int
}

// victimSetLocked snapshots the shed candidates and their §4.2
// inverse weights w_i = (1 - s_i) · q_i/Q: s_i is the tenant's
// entitled share of the registered tenants' funding, q_i/Q its share
// of their queued backlog. Enforcement first — candidates are the
// tenants queued beyond their entitled share; only if none is
// over-share does the set widen to every tenant with queued work, so
// a within-share tenant is never shed while an over-share tenant has
// anything queued.
func (c *Controller) victimSetLocked() ([]*shedVictim, []float64, []int64) {
	all := make([]*shedVictim, 0, len(c.tenants))
	var totalQ int
	var totalFunding float64
	for _, ts := range c.tenants {
		v := &shedVictim{ts: ts}
		for _, cl := range ts.clients {
			d := cl.Pending()
			v.clis = append(v.clis, shedClient{c: cl, depth: d})
			v.depth += d
		}
		totalQ += v.depth
		totalFunding += float64(ts.tenant.Funding())
		if v.depth > 0 {
			all = append(all, v)
		}
	}
	if totalQ == 0 {
		return nil, nil, nil
	}
	shares := make(map[*shedVictim]float64, len(all))
	cands := make([]*shedVictim, 0, len(all))
	for _, v := range all {
		share := 0.0
		if totalFunding > 0 {
			share = float64(v.ts.tenant.Funding()) / totalFunding
		}
		shares[v] = share
		qShare := float64(v.depth) / float64(totalQ)
		if share > 0 {
			v.ts.overShare = qShare / share
		} else {
			v.ts.overShare = 0
		}
		if qShare > share {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		cands = all
	}
	wts := make([]float64, len(cands))
	depths := make([]int64, len(cands))
	for i, v := range cands {
		wts[i] = (1 - shares[v]) * float64(v.depth) / float64(totalQ)
		depths[i] = int64(v.depth)
	}
	return cands, wts, depths
}
