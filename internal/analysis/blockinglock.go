package analysis

// BlockingLockAnalyzer enforces the dispatcher's in-lock hygiene
// contract (DESIGN.md §6): while a mutex is held, code must not reach
// a potentially-blocking operation —
//
//   - channel send, receive, or select over channels,
//   - observer/span emission (any method named Observe or Emit —
//     rt.Observer, metrics.Histogram, audit.Tracer and friends are
//     fan-out points whose implementations the lock holder cannot
//     bound),
//   - time.Sleep, any Wait method other than sync.Cond.Wait (which
//     releases the lock internally), and
//   - syscall-backed stdlib I/O (file reads/writes, net dials and
//     accepts, subprocess waits; see blockingStdlib in callgraph.go),
//
// whether the operation appears in the locked function itself or is
// reached through any chain of first-party calls. The reachability
// analysis subsumes lockemit's hand-maintained emit-function list:
// a helper that emits a span is flagged at every call site that can
// run it under a lock, with the full call path in the message.
//
// Lock tracking is the shared summary walker's (callgraph.go): the
// same intra-procedural semantics lockemit pinned — matching
// Lock/Unlock pairs, defer Unlock holding to function end, goroutine
// bodies starting lock-free, and immediately-invoked literals running
// under the caller's locks.
// Control-plane locks declared BlockExempt in LockOrder (the overload
// controller's mu, whose tick emits by design) are not reported on.
var BlockingLockAnalyzer = &Analyzer{
	Name: "blockinglock",
	Doc:  "flags blocking operations — channel ops, emission, sleeps, waits, syscall I/O — reachable while a mutex is held",
	Run:  runBlockingLock,
}

func runBlockingLock(pass *Pass) error {
	prog := pass.Prog
	prog.build()
	for _, n := range prog.nodes {
		if n.Pkg != pass.pkg {
			continue
		}
		s := prog.summary(n)
		for _, b := range s.blocks {
			if lock, ok := blockSensitiveLock(b.held); ok {
				pass.Reportf(b.pos, "%s while %s is held", b.desc, lock)
			}
		}
		for _, c := range s.calls {
			lock, ok := blockSensitiveLock(c.held)
			if !ok {
				continue
			}
			for _, t := range c.targets {
				chain := prog.mayBlock(t)
				if chain == nil {
					continue
				}
				path := witnessPath(t, chain.via)
				pass.Reportf(c.pos, "%s while %s is held, reached via %s (at %s)",
					chain.desc, lock, path, pass.Fset.Position(chain.pos))
				break // one witness per call site is enough
			}
		}
	}
	return nil
}

// blockSensitiveLock picks the lock to name in a diagnostic: the
// lexically-smallest held lock whose class is not BlockExempt. A held
// set consisting only of exempt control-plane locks suppresses the
// report.
func blockSensitiveLock(held []heldRef) (string, bool) {
	best := ""
	for _, h := range held {
		if h.class != "" {
			if _, entry := lockRank(h.class); entry != nil && entry.BlockExempt {
				continue
			}
		}
		if best == "" || h.path < best {
			best = h.path
		}
	}
	return best, best != ""
}
