package rt

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/rt/audit"
	"repro/internal/rt/resource"
)

// Task lifecycle states: queued → running → done, with two extra
// states for the lock-free submit path — a task published to a shard's
// MPSC ring is ringed until a worker drains it into the client's queue
// (taskRinged → taskQueued), and a context watcher that fires while
// the task is still in the ring flags it taskCancelledRing so the
// drain settles the cancellation under the shard lock it requires.
// The field is accessed atomically: queued↔running↔done transitions
// still happen under the owning client's shard mutex, but the
// ring-side CASes race with them by design, and the done channel
// remains the lock-free view of the terminal state. A cancelled task
// goes queued → done directly; a running task is never interrupted
// (workers are not preemptible, matching the paper's quantum
// semantics — once a quantum is won it runs to completion).
const (
	taskQueued int32 = iota
	taskRunning
	taskDone
	taskRinged
	taskCancelledRing
)

// Task is a submitted unit of work. Wait (or Done + Err) observes its
// completion; a task whose body panicked completes with an error, and
// a task cancelled while still queued completes with its context's
// error without ever running.
//
// Detached tasks (SubmitDetached) have no caller-visible handle: the
// struct comes from a pool and is recycled the moment the task
// finishes, so the steady-state submit path allocates nothing.
type Task struct {
	client   *Client
	ctx      context.Context
	fn       func()
	enqueued time.Time
	done     chan struct{} // nil for detached tasks
	err      error         // written once before done is closed
	state    int32         // atomic; see the state constants above
	detached bool

	// stop disarms the task's context watcher (context.AfterFunc
	// handle). Atomic because the lock-free submit path arms it after
	// publishing into the ring with no lock held, and a context that is
	// already done fires the watcher immediately — on another
	// goroutine, concurrently with the arm — which then clears the
	// handle and finishes the task. One-shot watchers make every
	// interleaving benign (a missed disarm of a fired watcher is a
	// no-op), so a plain pointer would work in practice, but the
	// handoff itself must still be a synchronized write.
	stop atomic.Pointer[func() bool]

	// res is the task's resource reserve, held from acquisition in
	// submit until finish releases it. Immutable while the task lives.
	res resource.Reserve

	// span is the task's sampled trace span, nil for unsampled tasks.
	// Stage stamps are written by whichever goroutine owns the task's
	// current phase (ordered by the shard mutex hand-off); finish
	// emits it exactly once, outside every dispatcher lock.
	span *audit.Span
}

// Client returns the client the task was submitted to.
func (t *Task) Client() *Client { return t.client }

// Done returns a channel closed when the task has finished.
func (t *Task) Done() <-chan struct{} { return t.done }

// Wait blocks until the task finishes and returns its error: nil on
// success, the panic error if the body panicked, the submission
// context's error if the task was cancelled while queued, or
// ErrClosed / ErrClientLeft if it was discarded by a deadline-bounded
// Close or Abandon.
func (t *Task) Wait() error {
	<-t.done
	return t.err
}

// WaitCtx blocks until the task finishes or ctx is done, whichever
// comes first. When ctx fires first it returns ctx.Err() and the task
// keeps its place: abandoning a wait does not cancel the task (cancel
// the submission context for that). Completion wins if both are ready.
func (t *Task) WaitCtx(ctx context.Context) error {
	select {
	case <-t.done:
		return t.err
	default:
	}
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Err returns the task's error if it has finished, nil otherwise.
func (t *Task) Err() error {
	select {
	case <-t.done:
		return t.err
	default:
		return nil
	}
}

func (t *Task) finish(err error) {
	if sp := t.span; sp != nil {
		// Emission shares finish's exactly-once guarantee, and finish
		// always runs outside dispatcher locks — the only place the
		// lockemit discipline allows a span to leave the task.
		t.span = nil
		t.client.d.tracer.Emit(sp, time.Now(), spanOutcome(sp, err), errText(err))
	}
	if !t.res.IsZero() {
		// finish is the single completion choke point — completion,
		// queued-task cancellation, panic, Abandon, and deadline-cut
		// Close all land here exactly once, so the reserve can never
		// leak or double-release. Runs outside every dispatcher lock.
		t.client.d.ledger.Release(t.client.tenant.res, t.res)
	}
	if t.detached {
		// Nobody holds a handle; the error was already surfaced through
		// counters and events. Disarm the context watcher before the
		// struct is pooled — an armed watcher firing later would cancel
		// whatever task reuses the struct. If Stop reports the watcher
		// already running, it may still be about to read this struct
		// (it will find the task no longer queued and leave it alone),
		// so the struct goes to the GC instead of the pool.
		if p := t.stop.Load(); p == nil || (*p)() {
			t.client.d.recycle(t)
		}
		return
	}
	t.err = err
	close(t.done)
	if p := t.stop.Load(); p != nil {
		(*p)() // release the context watcher
	}
}

// spanOutcome derives a span's terminal kind: a task that reached a
// worker completed or panicked; one evicted while queued was shed or
// cancelled (context, Abandon, or a deadline-cut Close).
func spanOutcome(sp *audit.Span, err error) string {
	switch {
	case !sp.Run.IsZero() && err != nil:
		return "panic"
	case !sp.Run.IsZero():
		return "complete"
	case errors.Is(err, ErrShed):
		return "shed"
	default:
		return "cancel"
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// WaitOn blocks until t finishes, lending the calling client's
// funding to t's client for the duration — the paper's ticket
// transfer (§3.2): a client blocked on another's progress funds the
// client it waits on, so the work it needs inherits its share.
//
// A client lends its funding to at most one task at a time; while a
// transfer is outstanding, further WaitOn calls on the same client
// just wait. Waiting on one's own task, or a task from a different
// dispatcher, performs no transfer.
func (c *Client) WaitOn(t *Task) error {
	if t == nil {
		panic("rt: WaitOn nil task")
	}
	d := c.d
	if t.client == c || t.client.d != d {
		return t.Wait()
	}
	d.graphMu.Lock()
	transferred := false
	if !c.left && !c.lent && !t.client.torn {
		if err := c.funding.Retarget(t.client.holder); err != nil {
			d.graphMu.Unlock()
			return fmt.Errorf("rt: ticket transfer: %w", err)
		}
		c.lent = true
		transferred = true
		d.weightEpoch.Add(1)
	}
	d.graphMu.Unlock()
	if transferred && d.obs != nil {
		d.obs.Observe(Event{At: time.Now(), Kind: EventTransfer,
			Client: c.name, Tenant: c.tenant.name, Peer: t.client.name})
	}

	<-t.done

	if transferred {
		d.graphMu.Lock()
		// Skip restore if the client was torn down while waiting
		// (teardown destroyed the lent ticket and cleared lent).
		if c.lent && !c.torn {
			if err := c.funding.Retarget(c.holder); err == nil {
				d.weightEpoch.Add(1)
			}
			c.lent = false
		}
		d.graphMu.Unlock()
	}
	return t.err
}
