package rt

import (
	"fmt"

	"repro/internal/rt/audit"
	"repro/internal/rt/resource"
	"repro/internal/ticket"
)

// Tenant is a currency-funded principal: a currency backed by base
// tickets, in which the tenant's clients are denominated. Ticket
// amounts inside the currency set relative shares among the tenant's
// own clients; the tenant's base funding sets its share against other
// tenants. Inflation inside one tenant therefore cannot dilute
// another (§3.3, §4.3). A tenant's clients may be homed on different
// shards; the currency graph itself is global and guarded by the
// dispatcher's graph lock.
type Tenant struct {
	d       *Dispatcher
	name    string
	cur     *ticket.Currency
	funding *ticket.Ticket // base -> cur
	clients int            // guarded by d.graphMu
	// res is the tenant's handle in the dispatcher's resource ledger,
	// registered with the base funding as tickets; nil without a
	// ledger. Immutable after creation.
	res *resource.Tenant
	// aud is the tenant's entry in the fairness auditor's draw ledger,
	// nil without an auditor. Immutable after creation.
	aud *audit.TenantAudit
	// dedicated marks the implicit single-client tenants made by
	// Dispatcher.NewClient, torn down when their one client leaves.
	dedicated bool
}

// NewTenant creates a currency named name funded with funding base
// units. Names must be unique across the dispatcher.
func (d *Dispatcher) NewTenant(name string, funding ticket.Amount) (*Tenant, error) {
	d.graphMu.Lock()
	defer d.graphMu.Unlock()
	return d.newTenantGraphLocked(name, funding, false)
}

func (d *Dispatcher) newTenantGraphLocked(name string, funding ticket.Amount, dedicated bool) (*Tenant, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	cur, err := d.tickets.NewCurrency(name, name)
	if err != nil {
		return nil, err
	}
	fund, err := d.base.Issue(funding, cur)
	if err != nil {
		_ = cur.Destroy()
		return nil, err
	}
	d.weightEpoch.Add(1)
	t := &Tenant{d: d, name: name, cur: cur, funding: fund, dedicated: dedicated}
	if d.ledger != nil {
		// The base funding doubles as the tenant's ticket allocation in
		// the resource ledger, so one currency funds all three resources.
		// Registration is idempotent: a tenant recreated under the same
		// name resumes its usage history.
		t.res = d.ledger.Tenant(name, float64(funding))
	}
	if d.aud != nil {
		// Same funding feeds the draw ledger: the auditor's expected
		// share is the tenant's base-ticket fraction. Registration is
		// idempotent, so a recreated tenant resumes (and un-retires)
		// its audit entry.
		t.aud = d.aud.Tenant(name, float64(funding))
	}
	return t, nil
}

// Name returns the tenant's currency name.
func (t *Tenant) Name() string { return t.name }

// SetFunding changes the tenant's base funding, rescaling its share
// against every other tenant.
func (t *Tenant) SetFunding(funding ticket.Amount) error {
	t.d.graphMu.Lock()
	defer t.d.graphMu.Unlock()
	if err := t.funding.SetAmount(funding); err != nil {
		return err
	}
	if t.res != nil {
		t.res.SetTickets(float64(funding))
	}
	if t.aud != nil {
		// Marks the tenant ticket-changed so the auditor excludes it
		// from the in-flight window rather than judging it against a
		// share it only held for part of the window.
		t.aud.SetTickets(float64(funding))
	}
	t.d.weightEpoch.Add(1)
	return nil
}

// Funding returns the tenant's base funding.
func (t *Tenant) Funding() ticket.Amount {
	t.d.graphMu.Lock()
	defer t.d.graphMu.Unlock()
	return t.funding.Amount()
}

// NewClient adds a client funded with amount tickets denominated in
// the tenant's currency. The name must be unique within the
// dispatcher's diagnostics (not enforced); amount must be positive.
// The client is homed on a shard chosen round-robin and stays there
// until it is torn down.
func (t *Tenant) NewClient(name string, amount ticket.Amount, opts ...ClientOption) (*Client, error) {
	d := t.d
	c := &Client{
		d:      d,
		tenant: t,
		name:   name,
		qcap:   d.queueCap,
		comp:   1,
	}
	for _, opt := range opts {
		opt(c)
	}
	// Validate options before issuing any tickets, so a rejected
	// client cannot leak funding into the tenant's currency (a leaked
	// ticket would silently dilute every sibling client).
	if c.qcap <= 0 {
		return nil, fmt.Errorf("rt: client %q: queue capacity must be positive", name)
	}
	d.graphMu.Lock()
	if d.closed.Load() {
		d.graphMu.Unlock()
		return nil, ErrClosed
	}
	holder := d.tickets.NewHolder(name)
	fund, err := t.cur.Issue(amount, holder)
	if err != nil {
		d.graphMu.Unlock()
		return nil, err
	}
	c.holder = holder
	c.funding = fund
	d.weightEpoch.Add(1)
	d.graphMu.Unlock()
	c.bindMetrics(d.m)

	// Home the client: roster insert and tenant count move together
	// under the shard lock + graph lock, so the invariant sweep never
	// sees them disagree.
	sh := d.shards[int(d.nextShard.Add(1))%len(d.shards)]
	c.sh = sh
	sh.mu.Lock()
	d.graphMu.Lock()
	t.clients++
	d.graphMu.Unlock()
	sh.clients = append(sh.clients, c)
	// Count before unlocking: the invariant sweep holds every shard
	// lock, so bumping clientsN inside the critical section keeps the
	// roster insert and the global count atomic with respect to it.
	d.clientsN.Add(1)
	sh.mu.Unlock()
	return c, nil
}

// NewClient creates a dedicated single-client tenant: a currency
// named name funded with funding base units, whose whole value backs
// the returned client. It is the common case for independent request
// classes; use NewTenant + Tenant.NewClient to share one currency
// among several clients.
func (d *Dispatcher) NewClient(name string, funding ticket.Amount, opts ...ClientOption) (*Client, error) {
	d.graphMu.Lock()
	t, err := d.newTenantGraphLocked(name, funding, true)
	d.graphMu.Unlock()
	if err != nil {
		return nil, err
	}
	c, err := t.NewClient(name, funding, opts...)
	if err != nil {
		d.graphMu.Lock()
		t.teardownGraphLocked()
		d.graphMu.Unlock()
		return nil, err
	}
	return c, nil
}

// teardownGraphLocked destroys a tenant's funding and currency once
// its last client is gone. Only dedicated tenants are torn down
// automatically. Called with the graph lock held.
func (t *Tenant) teardownGraphLocked() {
	// Destroy the currency first: it refuses while tickets are still
	// issued in it, and on success destroys its own backing (the base
	// funding). Destroying the funding before this check would leave a
	// still-live currency with zero backing — issued rights silently
	// devalued to nothing.
	if err := t.cur.Destroy(); err != nil {
		// Still-issued tickets mean a live client; leave the currency
		// and its base funding intact.
		return
	}
	if t.aud != nil {
		t.aud.Retire()
	}
	t.d.weightEpoch.Add(1)
}
