package rt

import (
	"sort"

	"repro/internal/lottery"
	"repro/internal/random"
)

// drawSnap is an immutable flattened view of one shard's lottery tree:
// the shard's competing clients with their cumulative weights, tagged
// with the tree generation it was built from. Workers draw candidate
// winners from it with a binary search over cum — no shard lock, no
// tree descent — and re-validate the generation under the lock before
// dispatching, so a draw against a stale snapshot can select a client
// but never wins with it (the epoch re-validation rule; see DESIGN.md
// "Lock-free dispatch").
//
// Published via shard.snap (an atomic.Pointer) and rebuilt only when
// the tree actually changed and a batch deep enough to pre-draw is
// running — under a deep backlog join/leave/transfer/compensation/
// inflation are rare relative to draws, so the common case is many
// draws per rebuild.
type drawSnap struct {
	gen     uint64
	total   float64
	cum     []float64 // cum[i] = sum of clients[0..i]'s weights
	clients []*Client
}

// pick draws one candidate: a uniform variate in [0, total) resolved
// against the cumulative weights. Callers guarantee total > 0.
func (s *drawSnap) pick(rng random.Source) *Client {
	w := lottery.Uniform(rng, s.total)
	// Client i owns [cum[i-1], cum[i]): the winner is the first entry
	// whose cumulative weight strictly exceeds the variate.
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > w })
	if i >= len(s.clients) {
		i = len(s.clients) - 1 // float round-off at the top edge
	}
	return s.clients[i]
}

// rebuildSnapLocked flattens the shard's current competitors into a
// fresh snapshot and publishes it. Called under the shard mutex after
// a reweigh, so the cached weights it reads equal the tree's. Clients
// with zero weight are omitted: the snapshot serves only the funded
// draw; the zero-total round-robin fallback stays on the locked path.
func (sh *shard) rebuildSnapLocked() {
	s := &drawSnap{gen: sh.treeGen}
	if n := sh.tree.Len(); n > 0 {
		s.clients = make([]*Client, 0, n)
		s.cum = make([]float64, 0, n)
		for _, c := range sh.clients {
			if !c.inTree {
				continue
			}
			w := c.weight()
			if w <= 0 {
				continue
			}
			s.total += w
			s.clients = append(s.clients, c)
			s.cum = append(s.cum, s.total)
		}
	}
	sh.snapGen = sh.treeGen
	sh.snap.Store(s)
}
