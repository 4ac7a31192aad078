package sched

import (
	"fmt"

	"repro/internal/lottery"
	"repro/internal/random"
	"repro/internal/sim"
)

// maxCompensation bounds the compensation-ticket multiplier. A thread
// that blocks after consuming essentially none of its quantum would
// otherwise be granted a near-infinite boost; the paper's prototype
// never hits this because Mach accounts CPU in clock ticks, which
// bounds 1/f at quantum/tick. The constant leaves headroom for
// short-quantum configurations.
const maxCompensation = 1000.0

// Lottery is the paper's scheduler: each Pick holds a lottery over the
// runnable clients, weighing each by its current ticket funding in
// base units times its compensation multiplier. The run queue is the
// paper's list-based lottery with an optional move-to-front heuristic
// (§4.2, §4.4); compensation tickets implement §4.5.
type Lottery struct {
	// MoveToFront enables the winner-to-front heuristic.
	MoveToFront bool

	src     random.Source
	ordered []*Client // run queue in current (possibly MTF-rotated) order
	comp    map[*Client]float64
	// saved parks compensation multipliers for blocked clients: a
	// thread that blocked early in its quantum carries its boost back
	// to the run queue when it wakes, or I/O-bound threads would never
	// receive their entitled share.
	saved map[*Client]float64
	// weights is PickExcluding's reused per-draw weight vector,
	// parallel to ordered.
	weights []float64
	// stats
	picks         uint64
	searchLengths uint64
}

// NewLottery returns a lottery policy drawing from src.
func NewLottery(src random.Source, moveToFront bool) *Lottery {
	return &Lottery{
		MoveToFront: moveToFront,
		src:         src,
		comp:        make(map[*Client]float64),
		saved:       make(map[*Client]float64),
	}
}

// Name implements Policy.
func (l *Lottery) Name() string { return "lottery" }

// Len implements Policy.
func (l *Lottery) Len() int { return len(l.ordered) }

// Add implements Policy. A returning client resumes the compensation
// multiplier it blocked with.
func (l *Lottery) Add(c *Client, now sim.Time) {
	if _, dup := l.comp[c]; dup {
		panic("sched: client added twice: " + c.Name)
	}
	m := 1.0
	if v, ok := l.saved[c]; ok {
		m = v
		delete(l.saved, c)
	}
	l.comp[c] = m
	l.ordered = append(l.ordered, c)
}

// Remove implements Policy.
func (l *Lottery) Remove(c *Client, now sim.Time) {
	m, ok := l.comp[c]
	if !ok {
		panic("sched: removing absent client: " + c.Name)
	}
	for i, x := range l.ordered {
		if x == c {
			l.ordered = append(l.ordered[:i], l.ordered[i+1:]...)
			delete(l.comp, c)
			if m != 1 {
				l.saved[c] = m
			}
			return
		}
	}
	panic("sched: run queue corrupt for client " + c.Name)
}

// Pick implements Policy: one lottery. The winner's compensation
// ticket is destroyed, because the winner is about to start a fresh
// quantum (§4.5: the ticket inflates the value "until the thread
// starts its next quantum").
func (l *Lottery) Pick(now sim.Time) *Client {
	return l.PickExcluding(now, nil)
}

// PickExcluding implements Policy: the lottery is held over the
// non-excluded entries only (clients running on other CPUs keep their
// tickets active but cannot win a second processor, so they draw with
// weight 0).
func (l *Lottery) PickExcluding(now sim.Time, excluded map[*Client]bool) *Client {
	l.weights = l.weights[:0]
	for _, c := range l.ordered {
		w := 0.0
		if !excluded[c] {
			w = l.effectiveWeight(c)
		}
		l.weights = append(l.weights, w)
	}
	var winner *Client
	if i, ok := lottery.Draw(l.src, l.weights); ok {
		winner = l.ordered[i]
		l.searchLengths += uint64(i + 1)
		if l.MoveToFront && i > 0 {
			copy(l.ordered[1:i+1], l.ordered[0:i])
			l.ordered[0] = winner
		}
	} else {
		// No funding anywhere (all currencies drained): rotate through
		// the queue round-robin rather than idling the CPU forever.
		// Zero-ticket clients have no entitlement (§2 promises wins
		// only to clients with tickets), but burning idle cycles
		// starving them would be gratuitous.
		for i, c := range l.ordered {
			if excluded[c] {
				continue
			}
			winner = c
			copy(l.ordered[i:], l.ordered[i+1:])
			l.ordered[len(l.ordered)-1] = winner
			break
		}
		if winner == nil {
			return nil
		}
		l.searchLengths++
	}
	l.picks++
	l.comp[winner] = 1
	return winner
}

// Used implements Policy: grants a compensation ticket when the
// client voluntarily gave up the CPU after consuming only a fraction
// f of its quantum, inflating its value by 1/f until it next starts a
// quantum. The kernel calls Used before Remove when a thread blocks,
// but the saved map also accepts updates for already-removed clients
// so caller ordering cannot silently drop a boost.
func (l *Lottery) Used(c *Client, used, quantum sim.Duration, voluntary bool, now sim.Time) {
	grant := voluntary && used > 0 && used < quantum
	if _, ok := l.comp[c]; ok {
		if grant {
			l.comp[c] = compFactor(used, quantum)
		} else {
			l.comp[c] = 1
		}
		return
	}
	if grant {
		l.saved[c] = compFactor(used, quantum)
	} else {
		delete(l.saved, c)
	}
}

// Tick implements Policy (no periodic work).
func (l *Lottery) Tick(now sim.Time) {}

// Compensation returns the client's current compensation multiplier
// (1 when none); tests and experiments assert against it.
func (l *Lottery) Compensation(c *Client) float64 {
	if v, ok := l.comp[c]; ok {
		return v
	}
	if v, ok := l.saved[c]; ok {
		return v
	}
	return 1
}

// AverageSearchLength reports the mean number of run-queue entries
// examined per lottery — the quantity the move-to-front heuristic
// shortens (§4.2).
func (l *Lottery) AverageSearchLength() float64 {
	if l.picks == 0 {
		return 0
	}
	return float64(l.searchLengths) / float64(l.picks)
}

func (l *Lottery) effectiveWeight(c *Client) float64 {
	w := c.Weight()
	if w < 0 {
		panic(fmt.Sprintf("sched: negative weight %v for %s", w, c.Name))
	}
	return w * l.comp[c]
}

func compFactor(used, quantum sim.Duration) float64 {
	f := float64(quantum) / float64(used)
	if f > maxCompensation {
		return maxCompensation
	}
	return f
}
