package main

import (
	"math/rand/v2"
)

// Every input the workloads feed the program comes from this file, and
// only from the --seed argument: which client each churn512 operation
// targets, when and how the client population churns, and which class
// each http_closed request asks for. The generators use math/rand/v2's
// PCG rather than the repository's own Park–Miller stream so that a
// change to the program under test cannot change its inputs.

// Stream ids, one per independent input.
const (
	streamTickets = iota + 1
	streamOps
	streamChurn
	streamClasses
)

// newRand returns the PCG stream for one input of one seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

const (
	churnTenants          = 16
	churnClientsPerTenant = 32
	churnClients          = churnTenants * churnClientsPerTenant
	// churnPlanLen is the cycle length of the operation plan. Callers
	// walk it round-robin by a shared operation counter; 2^18
	// operations is about a second of churn512.
	churnPlanLen = 1 << 18
	// Mean operation gaps between churn actions.
	setTicketsEvery = 200
	replaceEvery    = 800
)

// Churn actions attached to an operation.
const (
	actNone uint8 = iota
	actSetTickets
	actReplace // Leave the slot's client and register a fresh one in its tenant
)

// churnOp is one planned churn512 operation: the client slot to submit
// to, and optionally a churn action on actSlot to run first.
type churnOp struct {
	slot    uint16
	act     uint8
	actSlot uint16
	tickets uint32
}

// churnPlan is the seeded input of churn512.
type churnPlan struct {
	// tenantFunding is each tenant's base funding. The 400 + 100j
	// ladder keeps the smallest tenant above 2% of the draws, so every
	// tenant lands ~90 or more dispatches in each 4096-draw audit window.
	tenantFunding [churnTenants]uint64
	// tickets is each client slot's initial funding in its tenant's
	// currency; slot s belongs to tenant s / churnClientsPerTenant.
	tickets [churnClients]uint32
	ops     []churnOp
}

// skewedTickets draws a heavy-tailed ticket amount, 2^U{0..9}: the
// richest client of a tenant can hold 512× its poorest sibling.
func skewedTickets(r *rand.Rand) uint32 { return 1 << r.IntN(10) }

// newChurnPlan builds churn512's input from seed. The tenant of each
// operation follows a stride schedule over tenant funding (from seeded
// start passes), so every stretch of operations splits across tenants
// in proportion to their funding. The offered load is thus itself
// fair, which is what lets the fairness auditor's drift check hold on a
// closed loop whose queues never back up (with shallow queues the
// lottery rarely has a choice to make). The client inside the tenant,
// the churn gaps, the churn targets and the new ticket amounts are
// seeded draws.
func newChurnPlan(seed uint64) *churnPlan {
	p := &churnPlan{ops: make([]churnOp, churnPlanLen)}
	for j := range p.tenantFunding {
		p.tenantFunding[j] = 400 + 100*uint64(j)
	}
	tr := newRand(seed, streamTickets)
	for i := range p.tickets {
		p.tickets[i] = skewedTickets(tr)
	}

	or := newRand(seed, streamOps)
	var pass, stride [churnTenants]float64
	for j := range pass {
		stride[j] = 1 / float64(p.tenantFunding[j])
		pass[j] = or.Float64() * stride[j]
	}
	for i := range p.ops {
		best := 0
		for j := 1; j < churnTenants; j++ {
			if pass[j] < pass[best] {
				best = j
			}
		}
		pass[best] += stride[best]
		p.ops[i].slot = uint16(best*churnClientsPerTenant + or.IntN(churnClientsPerTenant))
	}

	cr := newRand(seed, streamChurn)
	place := func(every int, act uint8) {
		// Gaps uniform on [1, 2·every) have mean every.
		for i := cr.IntN(every); i < len(p.ops); i += 1 + cr.IntN(2*every-1) {
			if p.ops[i].act != actNone {
				continue
			}
			p.ops[i].act = act
			p.ops[i].actSlot = uint16(cr.IntN(churnClients))
			p.ops[i].tickets = skewedTickets(cr)
		}
	}
	place(replaceEvery, actReplace)
	place(setTicketsEvery, actSetTickets)
	return p
}

// httpClasses are the request classes of the daemon's CI soak
// configuration, with their ticket funding.
var httpClasses = []struct {
	name    string
	tickets int
}{{"gold", 50}, {"silver", 250}, {"bronze", 100}}

// classStream returns connection conn's seeded class sequence as a
// generator of indices into httpClasses, drawn uniformly.
func classStream(seed uint64, conn int) func() int {
	r := newRand(seed, streamClasses+uint64(conn)<<8)
	return func() int { return r.IntN(len(httpClasses)) }
}
