// Package mem implements the paper's inverse-lottery manager for
// space-shared resources (§6.2), instantiated for physical page
// frames: when a page fault finds no free frame, an inverse lottery
// selects a victim client with probability proportional to both
// (1 - t/T) — the complement of its ticket share — and the fraction of
// physical memory it currently occupies. Better-funded clients are
// therefore less likely to lose a page, and a client cannot be
// victimized beyond its residency.
//
// This package is the single-threaded simulation form of the
// mechanism; internal/rt/resource ports it to a concurrency-safe,
// byte-denominated runtime pool (tenant-granular victims, victim
// selection outside the ledger lock, dominant-resource bias) for the
// dispatcher's wall-clock task path.
package mem

import (
	"fmt"

	"repro/internal/lottery"
	"repro/internal/random"
)

// Manager allocates a fixed pool of page frames among clients.
// It is not safe for concurrent use (it belongs to one simulation).
type Manager struct {
	frames int
	free   int
	src    random.Source

	clients []*Client

	faults    uint64
	evictions uint64
}

// Client is one memory consumer.
type Client struct {
	name    string
	tickets float64

	resident int

	faults      uint64
	evictedFrom uint64 // pages this client lost to inverse lotteries
}

// NewManager creates a manager over the given number of page frames.
func NewManager(frames int, src random.Source) *Manager {
	if frames <= 0 {
		panic(fmt.Sprintf("mem: frames must be positive, got %d", frames))
	}
	if src == nil {
		panic("mem: nil random source")
	}
	return &Manager{frames: frames, free: frames, src: src}
}

// Register adds a client holding the given number of tickets.
func (m *Manager) Register(name string, tickets float64) *Client {
	if tickets < 0 {
		panic(fmt.Sprintf("mem: negative tickets %v", tickets))
	}
	c := &Client{name: name, tickets: tickets}
	m.clients = append(m.clients, c)
	return c
}

// Frames returns the pool size.
func (m *Manager) Frames() int { return m.frames }

// Free returns the number of unallocated frames.
func (m *Manager) Free() int { return m.free }

// Faults returns the total number of faults served.
func (m *Manager) Faults() uint64 { return m.faults }

// Evictions returns the total number of inverse lotteries held.
func (m *Manager) Evictions() uint64 { return m.evictions }

// Name returns the client's name.
func (c *Client) Name() string { return c.name }

// Resident returns the client's current frame count.
func (c *Client) Resident() int { return c.resident }

// Tickets returns the client's ticket allocation.
func (c *Client) Tickets() float64 { return c.tickets }

// SetTickets changes the client's allocation; subsequent inverse
// lotteries use the new value immediately.
func (c *Client) SetTickets(t float64) {
	if t < 0 {
		panic(fmt.Sprintf("mem: negative tickets %v", t))
	}
	c.tickets = t
}

// Faults returns how many faults this client has taken.
func (c *Client) Faults() uint64 { return c.faults }

// EvictedFrom returns how many pages this client has lost to inverse
// lotteries.
func (c *Client) EvictedFrom() uint64 { return c.evictedFrom }

// Fault services a page fault by c: a free frame if one exists,
// otherwise a frame revoked from the inverse-lottery loser. It
// returns the client that lost a frame (possibly c itself — a client
// occupying most of memory replaces its own pages), or nil when a
// free frame was used.
func (m *Manager) Fault(c *Client) *Client {
	if !m.owns(c) {
		panic("mem: Fault by unregistered client " + c.name)
	}
	m.faults++
	c.faults++
	if m.free > 0 {
		m.free--
		c.resident++
		return nil
	}
	victim := m.selectVictim()
	if victim == nil {
		// Unreachable when frames > 0: someone must hold the frames.
		panic("mem: no victim with a full frame pool")
	}
	m.evictions++
	victim.evictedFrom++
	victim.resident--
	c.resident++
	return victim
}

// Release returns n of c's frames to the free pool.
func (m *Manager) Release(c *Client, n int) {
	if n < 0 || n > c.resident {
		panic(fmt.Sprintf("mem: Release(%d) with resident %d", n, c.resident))
	}
	c.resident -= n
	m.free += n
}

// VictimProbability returns the closed-form probability that client i
// loses the next inverse lottery given current residencies — the
// value the §6.2 experiment compares observed frequencies against.
func (m *Manager) VictimProbability(c *Client) float64 {
	weights, clients := m.victimWeights()
	var total, mine float64
	for i, w := range weights {
		total += w
		if clients[i] == c {
			mine = w
		}
	}
	if total == 0 {
		return 0
	}
	return mine / total
}

// selectVictim holds the inverse lottery among clients that hold at
// least one frame.
func (m *Manager) selectVictim() *Client {
	weights, clients := m.victimWeights()
	if len(clients) == 0 {
		return nil
	}
	held := make([]int64, len(clients))
	for i, c := range clients {
		held[i] = int64(c.resident)
	}
	return clients[lottery.DrawVictim(m.src, weights, held)]
}

// victimWeights computes the §6.2 weights w_i = (1 - t_i/T) * m_i/M
// over clients with resident pages, where T sums tickets over those
// clients and M is the pool size.
func (m *Manager) victimWeights() ([]float64, []*Client) {
	var clients []*Client
	var totalTickets float64
	for _, c := range m.clients {
		if c.resident > 0 {
			clients = append(clients, c)
			totalTickets += c.tickets
		}
	}
	weights := make([]float64, len(clients))
	for i, c := range clients {
		share := 0.0
		if totalTickets > 0 {
			share = c.tickets / totalTickets
		}
		weights[i] = (1 - share) * float64(c.resident) / float64(m.frames)
	}
	return weights, clients
}

func (m *Manager) owns(c *Client) bool {
	for _, x := range m.clients {
		if x == c {
			return true
		}
	}
	return false
}
