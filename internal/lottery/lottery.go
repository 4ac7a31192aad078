// Package lottery implements the randomized selection at the core of
// lottery scheduling (§4.2 of the paper). Draw is the one-shot counter
// walk over a slice of weights, and DrawVictim is the same draw over
// inverse weights that picks a loser for space-shared resources
// (§6.2). The persistent structures keep their weights between draws:
// List is a list-based lottery with an optional move-to-front
// heuristic, and Tree is a tree of partial ticket sums with O(log n)
// draws.
//
// The structures are weight-agnostic: weights are float64 base-unit
// values produced by the ticket package (currency conversion can yield
// fractional base units). Draws consume a random.Source so tests can
// script outcomes and experiments stay deterministic under a seed.
package lottery

import (
	"fmt"

	"repro/internal/random"
)

// pmMax is the number of distinct values a Park-Miller source returns.
const pmMax = 1<<31 - 2

// Uniform maps one draw from src to a uniform float64 in [0, total).
func Uniform(src random.Source, total float64) float64 {
	if total <= 0 {
		return 0
	}
	u := float64(src.Uint31()-1) / float64(pmMax+1) // [0, 1)
	return u * total
}

// node is one client entry in a List.
type node[T any] struct {
	value  T
	weight float64
	index  int // position in List.nodes; -1 after removal
}

// Item is a caller-held handle to an entry in a List or Tree, used to
// update weights or remove the entry without a search.
type Item[T any] struct {
	n *node[T]
}

// Value returns the client stored in the entry.
func (it Item[T]) Value() T { return it.n.value }

// Weight returns the entry's current weight.
func (it Item[T]) Weight() float64 { return it.n.weight }

// List is the paper's straightforward centralized lottery: clients in
// a list, a draw picks a uniform value in [0, total) and walks the
// list accumulating weights until the winning value is reached
// (Figure 1). With MoveToFront set, winners migrate toward the head,
// which substantially shortens the average search when the ticket
// distribution is skewed (§4.2).
type List[T any] struct {
	// MoveToFront enables the winner-to-front heuristic.
	MoveToFront bool

	nodes []*node[T]
	total float64
}

// NewList returns an empty list lottery; mtf enables move-to-front.
func NewList[T any](mtf bool) *List[T] {
	return &List[T]{MoveToFront: mtf}
}

// Len returns the number of entries.
func (l *List[T]) Len() int { return len(l.nodes) }

// Total returns the sum of all weights.
func (l *List[T]) Total() float64 { return l.total }

// Add inserts a client with the given weight at the tail and returns
// its handle. Negative weights panic: a negative ticket value is
// always a caller bug.
func (l *List[T]) Add(v T, weight float64) Item[T] {
	if weight < 0 {
		panic(fmt.Sprintf("lottery: negative weight %v", weight))
	}
	n := &node[T]{value: v, weight: weight, index: len(l.nodes)}
	l.nodes = append(l.nodes, n)
	l.total += weight
	return Item[T]{n}
}

// Update changes an entry's weight.
func (l *List[T]) Update(it Item[T], weight float64) {
	if weight < 0 {
		panic(fmt.Sprintf("lottery: negative weight %v", weight))
	}
	if it.n.index < 0 {
		panic("lottery: Update of removed item")
	}
	l.total += weight - it.n.weight
	it.n.weight = weight
}

// Remove deletes an entry. Removing twice panics.
func (l *List[T]) Remove(it Item[T]) {
	n := it.n
	if n.index < 0 {
		panic("lottery: Remove of removed item")
	}
	last := len(l.nodes) - 1
	l.nodes[n.index] = l.nodes[last]
	l.nodes[n.index].index = n.index
	l.nodes = l.nodes[:last]
	l.total -= n.weight
	n.index = -1
	// Guard against float drift when the list empties.
	if len(l.nodes) == 0 {
		l.total = 0
	}
}

// Draw holds one lottery: it picks a uniform value in [0, Total()) and
// returns the client whose cumulative weight interval contains it.
// Entries with zero weight can never win. The boolean is false when
// the lottery has no weight to allocate.
func (l *List[T]) Draw(src random.Source) (T, bool) {
	var zero T
	if l.total <= 0 || len(l.nodes) == 0 {
		return zero, false
	}
	winning := Uniform(src, l.total)
	var sum float64
	for i, n := range l.nodes {
		sum += n.weight
		if winning < sum {
			if l.MoveToFront && i > 0 {
				l.moveToFront(i)
			}
			return n.value, true
		}
	}
	// Float round-off can leave winning == total after summation; the
	// last positive-weight entry wins in that measure-zero case.
	for i := len(l.nodes) - 1; i >= 0; i-- {
		if l.nodes[i].weight > 0 {
			return l.nodes[i].value, true
		}
	}
	return zero, false
}

// SearchLength returns how many entries a draw with the given winning
// value would examine; the move-to-front ablation bench measures it.
func (l *List[T]) SearchLength(winning float64) int {
	var sum float64
	for i, n := range l.nodes {
		sum += n.weight
		if winning < sum {
			return i + 1
		}
	}
	return len(l.nodes)
}

// moveToFront rotates the winner at position i to the head.
func (l *List[T]) moveToFront(i int) {
	win := l.nodes[i]
	copy(l.nodes[1:i+1], l.nodes[0:i])
	l.nodes[0] = win
	for j := 0; j <= i; j++ {
		l.nodes[j].index = j
	}
}

// Values returns the clients in current list order (head first); tests
// use it to observe the move-to-front behaviour.
func (l *List[T]) Values() []T {
	out := make([]T, len(l.nodes))
	for i, n := range l.nodes {
		out[i] = n.value
	}
	return out
}
