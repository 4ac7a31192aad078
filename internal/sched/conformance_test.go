package sched

import (
	"testing"

	"repro/internal/random"
	"repro/internal/sim"
)

// policyCase describes one policy for the conformance suite.
type policyCase struct {
	name string
	mk   func() Policy
	// starvationFree: with equal funding/priority, every runnable
	// client eventually runs. True for every policy here except that
	// fixed-priority starves only across *unequal* priorities, which
	// the suite doesn't create.
	starvationFree bool
}

func allPolicies() []policyCase {
	return []policyCase{
		{"lottery", func() Policy { return NewLottery(random.NewPM(11), false) }, true},
		{"lottery-mtf", func() Policy { return NewLottery(random.NewPM(12), true) }, true},
		{"stride", func() Policy { return NewStride() }, true},
		{"timesharing", func() Policy { return NewTimeSharing() }, true},
		{"round-robin", func() Policy { return NewRoundRobin() }, true},
		{"fixed-priority", func() Policy { return NewFixedPriority() }, true},
	}
}

// TestConformanceEmpty: a policy with no clients returns nil and has
// length zero.
func TestConformanceEmpty(t *testing.T) {
	for _, pc := range allPolicies() {
		p := pc.mk()
		if p.Pick(0) != nil {
			t.Errorf("%s: Pick on empty != nil", pc.name)
		}
		if p.Len() != 0 {
			t.Errorf("%s: Len on empty = %d", pc.name, p.Len())
		}
		if p.Name() == "" {
			t.Errorf("%s: empty Name", pc.name)
		}
		p.Tick(0) // must not panic with no clients
	}
}

// TestConformanceSingleton: one client always wins.
func TestConformanceSingleton(t *testing.T) {
	for _, pc := range allPolicies() {
		p := pc.mk()
		c := staticClient(0, 100)
		p.Add(c, 0)
		now := sim.Time(0)
		for i := 0; i < 50; i++ {
			if got := p.Pick(now); got != c {
				t.Fatalf("%s: Pick = %v, want the only client", pc.name, got)
			}
			now = now.Add(quantum)
			p.Used(c, quantum, quantum, false, now)
		}
		p.Remove(c, now)
		if p.Pick(now) != nil {
			t.Errorf("%s: Pick after removing last client != nil", pc.name)
		}
	}
}

// TestConformanceMembership: Pick never returns a removed client, and
// Len tracks the churn exactly.
func TestConformanceMembership(t *testing.T) {
	for _, pc := range allPolicies() {
		p := pc.mk()
		rng := random.NewPM(777)
		present := make(map[*Client]bool)
		var clients []*Client
		for i := 0; i < 10; i++ {
			clients = append(clients, staticClient(i, float64(10+i)))
		}
		now := sim.Time(0)
		for step := 0; step < 2000; step++ {
			c := clients[rng.Intn(len(clients))]
			if present[c] {
				p.Remove(c, now)
				present[c] = false
			} else {
				p.Add(c, now)
				present[c] = true
			}
			want := 0
			for _, in := range present {
				if in {
					want++
				}
			}
			if p.Len() != want {
				t.Fatalf("%s: Len = %d, want %d", pc.name, p.Len(), want)
			}
			if w := p.Pick(now); w != nil {
				if !present[w] {
					t.Fatalf("%s: picked removed client %s", pc.name, w.Name)
				}
				now = now.Add(quantum)
				p.Used(w, quantum, quantum, false, now)
			} else if want != 0 {
				t.Fatalf("%s: Pick = nil with %d runnable clients", pc.name, want)
			}
		}
	}
}

// TestConformanceNoStarvation: with equal funding and priority, every
// client runs within a bounded number of quanta.
func TestConformanceNoStarvation(t *testing.T) {
	for _, pc := range allPolicies() {
		if !pc.starvationFree {
			continue
		}
		p := pc.mk()
		const n = 8
		counts := make(map[*Client]int)
		var clients []*Client
		for i := 0; i < n; i++ {
			c := staticClient(i, 100)
			clients = append(clients, c)
			p.Add(c, 0)
		}
		now := sim.Time(0)
		for i := 0; i < 4000; i++ {
			c := p.Pick(now)
			counts[c]++
			now = now.Add(quantum)
			p.Used(c, quantum, quantum, false, now)
			if i%10 == 9 {
				p.Tick(now)
			}
		}
		for _, c := range clients {
			if counts[c] == 0 {
				t.Errorf("%s: client %s starved over 4000 equal-share quanta", pc.name, c.Name)
			}
		}
	}
}

// TestConformanceWorkConservation: the policy hands out exactly as
// many quanta as were requested — it never "loses" CPU while clients
// are runnable.
func TestConformanceWorkConservation(t *testing.T) {
	for _, pc := range allPolicies() {
		p := pc.mk()
		var clients []*Client
		for i := 0; i < 5; i++ {
			clients = append(clients, staticClient(i, float64(1+i)))
		}
		const quanta = 5000
		got := runCompute(p, clients, quanta)
		var total sim.Duration
		for _, d := range got {
			total += d
		}
		if total != quanta*quantum {
			t.Errorf("%s: handed out %v, want %v", pc.name, total, quanta*quantum)
		}
	}
}

// TestConformanceDeterminism: a policy driven by the same operation
// sequence (and seed) produces the same schedule.
func TestConformanceDeterminism(t *testing.T) {
	for _, pc := range allPolicies() {
		run := func() []int {
			p := pc.mk()
			var clients []*Client
			for i := 0; i < 6; i++ {
				c := staticClient(i, float64(10*(i+1)))
				clients = append(clients, c)
				p.Add(c, 0)
			}
			now := sim.Time(0)
			var order []int
			for i := 0; i < 500; i++ {
				c := p.Pick(now)
				order = append(order, c.ID)
				now = now.Add(quantum)
				p.Used(c, quantum, quantum, i%3 == 0, now)
				if i == 100 {
					p.Remove(clients[2], now)
				}
				if i == 200 {
					p.Add(clients[2], now)
				}
			}
			return order
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: schedule diverged at step %d", pc.name, i)
			}
		}
	}
}

// TestConformancePickExcluding: the excluded client is never returned,
// everything else still gets scheduled, and a fully excluded set
// yields nil.
func TestConformancePickExcluding(t *testing.T) {
	for _, pc := range allPolicies() {
		p := pc.mk()
		var clients []*Client
		for i := 0; i < 4; i++ {
			c := staticClient(i, float64(100*(i+1)))
			clients = append(clients, c)
			p.Add(c, 0)
		}
		now := sim.Time(0)
		// Exclude the heaviest client: it must never win; the others
		// all run eventually.
		excluded := map[*Client]bool{clients[3]: true}
		seen := map[*Client]bool{}
		for i := 0; i < 3000; i++ {
			c := p.PickExcluding(now, excluded)
			if c == nil {
				t.Fatalf("%s: nil pick with eligible clients", pc.name)
			}
			if c == clients[3] {
				t.Fatalf("%s: excluded client picked", pc.name)
			}
			seen[c] = true
			now = now.Add(quantum)
			p.Used(c, quantum, quantum, false, now)
		}
		for i := 0; i < 3; i++ {
			if !seen[clients[i]] {
				t.Errorf("%s: client %d never ran with exclusion active", pc.name, i)
			}
		}
		// Exclude everyone.
		all := map[*Client]bool{}
		for _, c := range clients {
			all[c] = true
		}
		if got := p.PickExcluding(now, all); got != nil {
			t.Errorf("%s: pick with all excluded = %v", pc.name, got.Name)
		}
		// Nil map == Pick.
		if p.PickExcluding(now, nil) == nil {
			t.Errorf("%s: nil-map PickExcluding returned nil", pc.name)
		}
	}
}

// TestConformanceExclusionPreservesProportions: for proportional
// policies, excluding one client renormalizes the shares among the
// rest.
func TestConformanceExclusionPreservesProportions(t *testing.T) {
	for _, pc := range allPolicies() {
		switch pc.name {
		case "lottery", "lottery-mtf", "stride":
		default:
			continue
		}
		p := pc.mk()
		a := staticClient(0, 300)
		b := staticClient(1, 100)
		heavy := staticClient(2, 10000)
		for _, c := range []*Client{a, b, heavy} {
			p.Add(c, 0)
		}
		excluded := map[*Client]bool{heavy: true}
		now := sim.Time(0)
		counts := map[*Client]int{}
		const n = 20000
		for i := 0; i < n; i++ {
			c := p.PickExcluding(now, excluded)
			counts[c]++
			now = now.Add(quantum)
			p.Used(c, quantum, quantum, false, now)
		}
		ratio := float64(counts[a]) / float64(counts[b])
		if ratio < 2.5 || ratio > 3.6 {
			t.Errorf("%s: exclusion-renormalized ratio = %v (%v), want ~3",
				pc.name, ratio, counts)
		}
	}
}
