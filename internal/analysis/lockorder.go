package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrderAnalyzer enforces the runtime's global lock hierarchy
// (DESIGN.md §6). It computes, per function, which mutexes can be held
// when the function runs — following calls across packages through the
// Program's call graph — and reports:
//
//  1. acquisitions that violate the declared global order (LockOrder
//     below, the single authoritative statement of the hierarchy),
//     with the full inter-procedural witness path;
//  2. double acquisition of a non-reentrant mutex — the same lock
//     expression re-locked with itself held, or a call path that leads
//     back to a held lock class;
//  3. ordering cycles among locks outside the declared table (two
//     mutexes each acquired while the other is held, anywhere in the
//     program), the classic two-thread deadlock.
//
// Lock identity is the class "pkgpath.Type.field" (or "pkgpath.var"):
// every instance of a class shares a rank, so multi-instance classes
// that self-order (per-shard mutexes, locked in ascending shard-id
// order by construction — see lockAllShards, used by CheckInvariants
// and Snapshot) are declared MultiInstance and exempt from same-class
// reports.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "enforces the declared global mutex order and reports ordering cycles and double acquisition",
	Run:  runLockOrder,
}

// LockRank is one entry of the declared global lock order.
type LockRank struct {
	// Class is a suffix of the global lock class ("internal/rt.shard.mu"
	// matches "repro/internal/rt.shard.mu"); suffix matching keeps the
	// table stable across module renames and lets fixtures exercise it.
	Class string
	// MultiInstance marks classes with many self-ordered instances:
	// holding two locks of the class at once is legal (ascending-id
	// discipline is enforced by construction, not by this analyzer).
	MultiInstance bool
	// BlockExempt marks control-plane locks under which blocking
	// operations are accepted by design; blockinglock consults this.
	// Ordering is still enforced.
	BlockExempt bool
}

// LockOrder is the canonical global mutex hierarchy — THE single
// declaration the analyzers enforce and DESIGN.md §6 documents. A lock
// may only be acquired while locks of strictly lower index are held:
//
//	overload.Controller.mu → rt.shard.mu → rt.Dispatcher.graphMu →
//	resource.Ledger.mu → rt.EventRecorder.mu → audit.Tracer.mu
//
// Note the order within rt: a shard's mu may be held when taking
// graphMu, never the reverse (shard.go, dispatcher.go document the
// invariant; reweighLocked and the teardown paths rely on it). The
// overload controller's mu sits above every dispatcher lock — its tick
// calls into the dispatcher (SetFunding, Shed) with mu held. The
// ledger and the observability sinks are leaves: they never call back
// into the dispatcher.
var LockOrder = []LockRank{
	{Class: "internal/rt/overload.Controller.mu", BlockExempt: true},
	{Class: "internal/rt.shard.mu", MultiInstance: true},
	{Class: "internal/rt.Dispatcher.graphMu"},
	{Class: "internal/rt/resource.Ledger.mu"},
	{Class: "internal/rt.EventRecorder.mu"},
	{Class: "internal/rt/audit.Tracer.mu"},
}

// lockRank resolves a global lock class against the declared order,
// returning its index.
func lockRank(class string) (int, *LockRank) {
	for i := range LockOrder {
		e := &LockOrder[i]
		if class == e.Class || strings.HasSuffix(class, "/"+e.Class) {
			return i, e
		}
	}
	return -1, nil
}

func declaredOrderString() string {
	parts := make([]string, len(LockOrder))
	for i, e := range LockOrder {
		parts[i] = shortClass(e.Class)
	}
	return strings.Join(parts, " → ")
}

// shortClass compresses "repro/internal/rt.shard.mu" to "rt.shard.mu"
// for messages.
func shortClass(class string) string {
	if i := strings.LastIndexByte(class, '/'); i >= 0 {
		return class[i+1:]
	}
	return class
}

func runLockOrder(pass *Pass) error {
	findings := pass.Prog.lockOrderFindings()
	for _, f := range findings {
		if f.pkg == pass.pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// lockEdge is one observed "to acquired while from held" pair with a
// witness.
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	witness  string
}

// lockOrderFindings computes the program-wide lock-order diagnostics
// once: rank violations and double acquisitions are reported where
// the offending hold happens; cycles among unranked locks are reported
// at their first edge.
func (p *Program) lockOrderFindings() []progFinding {
	if p.lockFindingsOnce {
		return p.lockFindings
	}
	p.lockFindingsOnce = true
	p.build()

	var findings []progFinding
	report := func(pkg *Package, pos token.Pos, format string, args ...any) {
		findings = append(findings, progFinding{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	// Edges for cycle detection among unranked classes; ranked classes
	// are checked directly against the table.
	edges := make(map[string]map[string]lockEdge)
	addEdge := func(e lockEdge) {
		if e.from == "" || e.to == "" {
			return
		}
		m := edges[e.from]
		if m == nil {
			m = make(map[string]lockEdge)
			edges[e.from] = m
		}
		if _, ok := m[e.to]; !ok {
			m[e.to] = e
		}
	}

	checkPair := func(held heldRef, class string, pkg *Package, pos token.Pos, witness string, leafPath string) {
		if held.class == "" || class == "" {
			return
		}
		fromRank, fromEntry := lockRank(held.class)
		toRank, _ := lockRank(class)
		same := held.class == class
		if same && fromEntry != nil && fromEntry.MultiInstance {
			return // self-ordered multi-instance class (per-shard mutexes)
		}
		if same {
			report(pkg, pos,
				"%s acquired while already held (%s); non-reentrant mutex deadlocks here",
				shortClass(class), witness)
			return
		}
		if fromRank >= 0 && toRank >= 0 {
			if fromRank >= toRank {
				report(pkg, pos,
					"acquires %s while %s is held, against the declared lock order (%s); path: %s",
					shortClass(class), shortClass(held.class), declaredOrderString(), witness)
			}
			return // ranked pairs are fully decided by the table
		}
		addEdge(lockEdge{from: held.class, to: class, pkg: pkg, pos: pos, witness: strings.TrimSpace(witness + " " + leafPath)})
	}

	for _, n := range p.nodes {
		s := p.summary(n)
		for _, a := range s.acquires {
			for _, h := range a.held {
				// Same expression re-locked: certain deadlock regardless
				// of class tracking.
				if h.path == a.path {
					report(n.Pkg, a.pos,
						"%s locked twice in %s (first at %s); sync mutexes are not reentrant",
						a.path, n.Name(), n.Pkg.Fset.Position(h.pos))
					continue
				}
				checkPair(h, a.class, n.Pkg, a.pos, n.Name(), "")
			}
		}
		for _, c := range s.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, t := range c.targets {
				for class, chain := range p.mayAcquire(t) {
					witness := witnessPath(n, append([]*FuncNode{t}, chain.via...))
					leaf := fmt.Sprintf("(acquired at %s)", n.Pkg.Fset.Position(chain.pos))
					for _, h := range c.held {
						checkPair(h, class, n.Pkg, c.pos, witness, leaf)
					}
				}
			}
		}
	}

	findings = append(findings, cycleFindings(edges)...)
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	p.lockFindings = findings
	return findings
}

// cycleFindings runs a DFS over the unranked-lock edge graph and
// reports each elementary cycle once, canonicalized by its smallest
// class, with the witness for every edge on the cycle.
func cycleFindings(edges map[string]map[string]lockEdge) []progFinding {
	var classes []string
	for c := range edges {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	seen := make(map[string]bool) // canonical cycle keys already reported
	var findings []progFinding

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string

	var visit func(c string)
	visit = func(c string) {
		color[c] = gray
		stack = append(stack, c)
		var tos []string
		for to := range edges[c] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			switch color[to] {
			case white:
				visit(to)
			case gray:
				// Found a cycle: stack from `to` to top.
				i := len(stack) - 1
				for i >= 0 && stack[i] != to {
					i--
				}
				if i < 0 {
					continue
				}
				cyc := append([]string{}, stack[i:]...)
				key := canonicalCycle(cyc)
				if seen[key] {
					continue
				}
				seen[key] = true
				findings = append(findings, cycleFinding(cyc, edges))
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
	}
	for _, c := range classes {
		if color[c] == white {
			visit(c)
		}
	}
	return findings
}

func canonicalCycle(cyc []string) string {
	min := 0
	for i := range cyc {
		if cyc[i] < cyc[min] {
			min = i
		}
	}
	rot := append(append([]string{}, cyc[min:]...), cyc[:min]...)
	return strings.Join(rot, "→")
}

func cycleFinding(cyc []string, edges map[string]map[string]lockEdge) progFinding {
	names := make([]string, 0, len(cyc)+1)
	for _, c := range cyc {
		names = append(names, shortClass(c))
	}
	names = append(names, shortClass(cyc[0]))
	var legs []string
	for i := range cyc {
		from, to := cyc[i], cyc[(i+1)%len(cyc)]
		e := edges[from][to]
		legs = append(legs, fmt.Sprintf("%s while %s held via %s",
			shortClass(to), shortClass(from), e.witness))
	}
	first := edges[cyc[0]][cyc[(0+1)%len(cyc)]]
	return progFinding{
		pkg: first.pkg,
		pos: first.pos,
		msg: fmt.Sprintf("lock-order cycle %s: %s; threads interleaving these acquisitions deadlock",
			strings.Join(names, " → "), strings.Join(legs, "; ")),
	}
}
