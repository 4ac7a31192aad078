package rt

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/rt/audit"
	"repro/internal/rt/resource"
)

// This file is the lock-free half of the submit path: a bounded MPSC
// ring per shard (producers are submitters on any goroutine, the
// single consumer is whichever goroutine holds the shard mutex). See
// DESIGN.md "Lock-free dispatch" for the protocol and the
// memory-ordering argument.

// ringBits sizes every shard's submit ring at 2^ringBits slots. Big
// enough that a full ring means a real backlog (the slow path then
// applies the client's own Reject/Block policy), small enough that an
// idle dispatcher wastes little memory per shard.
const ringBits = 10

// ringSize is the slot count; a power of two so slot indexing is a
// mask, not a modulo.
const ringSize = 1 << ringBits

// ringMsg is one published submission: everything the draining worker
// needs to enqueue the task under the shard lock. For detached
// submissions t is nil and the Task struct is taken from the
// dispatcher's pool at drain time, so the fast-path publish allocates
// nothing at all.
type ringMsg struct {
	c  *Client
	fn func()
	// t is the caller-visible handle for attached submissions,
	// allocated by the submitter (its done channel must exist before
	// Submit returns); nil for detached fast-path submissions.
	t *Task
	// ctx is non-nil only for cancellable submissions.
	ctx  context.Context
	span *audit.Span
	res  resource.Reserve
	// enq is the submitter's clock read, taken before the slot is
	// reserved and only when its ringPending increment found the ring
	// empty or an observer needs the submit time; zero otherwise.
	enq time.Time
}

// ringSlot couples a message with its sequence atomic. seq is the
// publication point: a producer stores the message and then seq, a
// consumer loads seq and then the message, so the plain msg fields are
// ordered by the seq atomics alone.
type ringSlot struct {
	seq atomic.Uint64
	msg ringMsg
}

// ring is a bounded multi-producer single-consumer queue in the
// Vyukov style: producers reserve a slot by CAS on head, then publish
// into it with a release store of the slot's sequence; the single
// consumer (the goroutine holding the owning shard's mutex) advances
// a plain tail cursor. A reserved-but-not-yet-published slot makes
// pop transiently report empty — acceptable, because the producer's
// ringPending increment keeps a worker scanning until the store lands.
type ring struct {
	slots []ringSlot
	mask  uint64
	head  atomic.Uint64 // producer reservation cursor
	tail  uint64        // consumer cursor; guarded by the owning shard's mutex
}

func (r *ring) init(size int) {
	r.slots = make([]ringSlot, size)
	r.mask = uint64(size - 1)
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
}

// publish reserves the next slot and stores m into it, returning false
// when the ring is full (the caller falls back to the locked submit
// path, so backpressure semantics are unchanged). Safe for any number of
// concurrent producers.
func (r *ring) publish(m ringMsg) bool {
	for {
		pos := r.head.Load()
		slot := &r.slots[pos&r.mask]
		switch diff := int64(slot.seq.Load()) - int64(pos); {
		case diff == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				slot.msg = m
				slot.seq.Store(pos + 1)
				return true
			}
		case diff < 0:
			// The slot is still occupied by a message published one lap
			// ago: the ring is full.
			return false
		default:
			// Another producer advanced head past our stale read; retry
			// with a fresh cursor.
		}
	}
}

// pop takes the oldest published message, or reports empty. Single
// consumer: callers hold the owning shard's mutex, which is what makes
// the plain tail cursor sound.
func (r *ring) pop() (ringMsg, bool) {
	pos := r.tail
	slot := &r.slots[pos&r.mask]
	if int64(slot.seq.Load())-int64(pos+1) < 0 {
		return ringMsg{}, false
	}
	m := slot.msg
	slot.msg = ringMsg{}
	// Release the slot for the producer one lap ahead only after the
	// message (and its pointers) have been cleared.
	slot.seq.Store(pos + uint64(len(r.slots)))
	r.tail = pos + 1
	return m, true
}
