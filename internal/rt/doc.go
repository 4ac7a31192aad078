// Package rt is the real-time lottery dispatcher: it runs the paper's
// proportional-share machinery (Waldspurger & Weihl, OSDI '94) over
// actual goroutines under wall-clock time, proportionally sharing a
// bounded worker pool among competing clients.
//
// Everything else in this repository schedules virtual time on a
// single goroutine; this package is the bridge to a live system. The
// mechanisms map onto the paper as follows:
//
//   - Lotteries (§2, §4.2): each free worker slot is awarded by a
//     lottery over the clients with pending work, drawn in O(log n)
//     from the same partial-sum tree (internal/lottery.Tree) the
//     simulator uses.
//   - Ticket currencies (§3.3, §4.3–4.4): clients are funded through
//     the internal/ticket currency graph. Each tenant owns a currency
//     backed by base tickets; inflating tickets inside one tenant's
//     currency redistributes that tenant's share internally and cannot
//     dilute any other tenant.
//   - Ticket transfers (§3.2): Client.WaitOn lends the waiter's
//     funding to the client it blocks on for the duration of the wait,
//     the mach_msg transfer pattern.
//   - Compensation tickets (§3.4): a client whose task finishes after
//     using only a fraction f of the configured slice has its weight
//     boosted by 1/f until it next wins a dispatch, so clients with
//     short tasks keep their entitled share of the pool.
//
// The dispatcher adds the robustness a wall-clock system needs and a
// simulator does not: bounded per-client queues with block or reject
// backpressure, panic isolation per task, graceful drain on Close, and
// a Snapshot with per-client achieved vs. entitled share and
// wait-latency percentiles whose counts are an exact cut.
//
// # Task lifecycle
//
// A task moves through a small state machine:
//
//	queued ──────────► running ──► done
//	   │  (worker wins a slot)      ▲
//	   └────────────────────────────┘
//	     (submission context done, Abandon,
//	      or a deadline-bounded Close)
//
// SubmitCtx binds a task to a context: while the task is still
// queued, cancellation (or a context.WithTimeout deadline) removes it
// from the queue — the slot is reclaimed, a blocked Block-policy
// submitter is admitted, the client leaves the lottery if its queue
// empties, and Task.Wait returns the context's error. Once a worker
// has won the task it runs to completion; workers are not
// preemptible, matching the paper's quantum semantics (a won quantum
// is consumed whole). Task.WaitCtx bounds only the wait, never the
// task. CloseCtx / CloseTimeout drain with a deadline: queued tasks
// still outstanding when the deadline passes are completed with
// ErrClosed without running, while in-flight tasks always finish.
//
// # Sharded dispatch
//
// Dispatcher state is sharded (Config.Shards, default GOMAXPROCS):
// clients are placed round-robin across shards at creation and stay
// there for life. Each shard has its own mutex, lottery tree, and
// Park-Miller stream, so submits and draws for clients on different
// shards proceed in parallel. Workers pick a shard by a deterministic
// per-worker stride walk over the shards' published total weights —
// the inter-shard level of a two-level lottery, the currency
// abstraction turned into a concurrency structure — then draw winners
// inside that shard's tree, up to K per lock acquisition while a deep
// backlog makes batching safe. The ticket currency graph stays global
// behind its own lock and is consulted off the draw path only after it
// actually changes (an epoch counter batches reweighs, the sharded
// successor of the old weightsDirty flag). SubmitDetached recycles
// task bookkeeping through a pool, making the steady-state submit path
// allocation-free. See DESIGN.md §7 for the full structure.
//
// Snapshot locks every shard in id order, the same sweep
// CheckInvariants makes, and copies the per-client counters and the
// dispatched, cancelled and shed totals under those locks, so they
// form one consistent cut. The locks are held only for the copy;
// funding valuation and wait quantiles are computed after release.
//
// # Lock-free dispatch
//
// On top of sharding, the steady-state submit takes no lock: it
// publishes into a per-shard bounded MPSC ring and returns, and
// whichever worker next holds the shard mutex drains the ring into the
// run queue. This is the only dispatch path; a full queue or ring
// falls back to a locked submit that applies the client's overflow
// policy. Under a deep backlog, draws read an immutable prefix-sum
// snapshot of the shard's lottery tree, swapped atomically; a winner
// drawn from a snapshot made stale by a concurrent SetTickets, join,
// or leave is re-validated against the shard's generation under the
// lock and redrawn if invalid, so a retired client is never
// dispatched. Off-lock pre-draws engage only where they can overlap
// with another worker's critical section (GOMAXPROCS > 1), only at
// the batching threshold, and only after the snapshot has stayed
// fresh for a few consecutive batches; snapshots are rebuilt only
// where a pre-draw could read them. Shallow, churny or single-P
// regimes keep draws on the locked tree, whose timing the windowed
// fairness checks are calibrated against. Detached task structs
// recycle through the dispatcher's sync.Pool. See DESIGN.md §11 for
// the ring protocol, the memory-ordering argument and the
// measurements that chose these mechanisms.
//
// The ring relaxes one ordering edge, observability only: a
// submission is live from the moment it is published (it counts
// against the client's queue cap, it will run, FIFO per client
// holds), but it reaches the queue — and the counts Snapshot reports
// — only when a worker drains it. A Snapshot cut between publish and
// drain sees the task in neither queue; Pending and the fairness
// ledger account for it via the shard's ring-pending gauge.
//
// Wait quantiles (Snapshot.WaitP50/WaitP99, Client.WaitHistogram,
// which the overload controller's SLO loop also reads) run from a
// task's enqueue stamp to its draw. A locked-path submit is stamped as
// it enters the queue. A ringed submit reads the clock only when it
// finds the ring empty or an observer needs the submit time, and the
// drain stamps each message with the latest reading it has popped. So
// ring dwell counts, overstated by at most a task's lag behind the
// stamped message; a message popped before any stamp is stamped at
// its drain, without its ring dwell.
//
// # Tracing and the fairness audit
//
// Config.Tracer samples tasks at submit and stitches a per-task span
// — reserve, queue, dispatch, run — emitted exactly once from finish,
// outside every dispatcher lock; Config.Audit keeps a windowed
// per-tenant ledger of expected vs. observed dispatches and flags
// drift (see internal/rt/audit). Both are nil-cheap: unset, the only
// cost is a predictable branch per site (BenchmarkTraceOverhead).
//
// Unlike Snapshot, audit windows are not a cut across shards:
// dispatches are counted as workers complete draws, outside the shard
// locks, so draws racing a window boundary land in the adjacent
// window. Window verdicts are exact over the draws they counted; they
// are not an instantaneous global cut.
package rt
