package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the unit of inter-procedural analysis: every package one
// Load call returned, plus a lazily-built call graph and the memoized
// per-function facts (lock acquisitions, blocking operations) the
// inter-procedural analyzers share. Analyzers still run and report
// per package — a Pass carries its Program in Pass.Prog — but their
// facts may come from any function in the program, so a lock taken in
// internal/rt/resource is visible to a caller in internal/rt.
//
// Callee resolution is deliberately modest and stdlib-only:
//
//   - static calls and method calls resolve through go/types
//     (Uses/Selections), across packages;
//   - calls through function values resolve flow-insensitively: every
//     function ever assigned to a variable, struct field, or passed as
//     an argument for a func-typed parameter is a possible target of a
//     call through that variable, field, or parameter;
//   - interface method calls resolve by class-hierarchy analysis
//     restricted to interfaces declared in the analyzed packages
//     (first-party). Stdlib interfaces (io.Writer, error) are not
//     expanded — doing so would make every Write in the program a
//     possible callee of every io.Writer call and drown the analyzers
//     in impossible paths.
//
// Goroutine launches and deferred calls are not call edges: a spawned
// goroutine does not hold its creator's locks (its body is analyzed as
// an independent root), and deferred calls run at exit where the held
// set is unknowable intra-procedurally.
type Program struct {
	Pkgs []*Package

	built  bool
	nodes  []*FuncNode
	byFunc map[*types.Func]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
	// flow maps a func-typed variable, field, or parameter to every
	// function value observed flowing into it anywhere in the program.
	flow map[types.Object]map[*FuncNode]bool
	// ifaceImpls maps a first-party interface method to the concrete
	// first-party methods that can stand behind it.
	ifaceImpls map[ifaceMethod][]*FuncNode

	summaries map[*FuncNode]*funcSummary

	acquireMemo map[*FuncNode]map[string]acqChain
	acquireBusy map[*FuncNode]bool
	blockMemo   map[*FuncNode]*blockChain
	blockBusy   map[*FuncNode]bool
	blockDone   map[*FuncNode]bool

	lockFindingsOnce bool
	lockFindings     []progFinding

	atomicOnce  bool
	atomicFacts *atomicFacts
}

type ifaceMethod struct {
	iface  *types.TypeName
	method string
}

// FuncNode is one analyzable function body: a declared function or
// method, or a function literal.
type FuncNode struct {
	Fn   *types.Func  // nil for function literals
	Lit  *ast.FuncLit // nil for declared functions
	Body *ast.BlockStmt
	Pkg  *Package

	name string
}

// Name renders the node for witness paths: "rt.(*Dispatcher).drawBatch"
// for methods, "rt.reweigh" for functions, "rt.func@file:line" for
// literals.
func (n *FuncNode) Name() string { return n.name }

// NewProgram wraps loaded packages for inter-procedural analysis. The
// call graph and all derived facts are built lazily on first use.
func NewProgram(pkgs []*Package) *Program {
	return &Program{Pkgs: pkgs}
}

func (p *Program) pkgOf(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.PkgPath == path {
			return pkg
		}
	}
	return nil
}

func (p *Program) build() {
	if p.built {
		return
	}
	p.built = true
	p.byFunc = make(map[*types.Func]*FuncNode)
	p.byLit = make(map[*ast.FuncLit]*FuncNode)
	p.flow = make(map[types.Object]map[*FuncNode]bool)
	p.ifaceImpls = make(map[ifaceMethod][]*FuncNode)
	p.summaries = make(map[*FuncNode]*funcSummary)
	p.acquireMemo = make(map[*FuncNode]map[string]acqChain)
	p.acquireBusy = make(map[*FuncNode]bool)
	p.blockMemo = make(map[*FuncNode]*blockChain)
	p.blockBusy = make(map[*FuncNode]bool)
	p.blockDone = make(map[*FuncNode]bool)

	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Syntax {
			p.collectNodes(pkg, f)
		}
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Syntax {
			p.collectFlow(pkg, f)
		}
	}
	p.collectIfaceImpls()
	sort.Slice(p.nodes, func(i, j int) bool { return p.nodes[i].Body.Pos() < p.nodes[j].Body.Pos() })
}

func (p *Program) collectNodes(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		node := &FuncNode{Fn: fn, Body: fd.Body, Pkg: pkg, name: declaredFuncName(fn)}
		p.byFunc[fn] = node
		p.nodes = append(p.nodes, node)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		pos := pkg.Fset.Position(lit.Pos())
		node := &FuncNode{Lit: lit, Body: lit.Body, Pkg: pkg,
			name: fmt.Sprintf("%s.func@%s:%d", pkg.Types.Name(), shortFile(pos.Filename), pos.Line)}
		p.byLit[lit] = node
		p.nodes = append(p.nodes, node)
		return true
	})
}

func declaredFuncName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name()
	}
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t, star = ptr.Elem(), "*"
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s%s).%s", pkgName, star, named.Obj().Name(), fn.Name())
		}
	}
	return pkgName + "." + fn.Name()
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// collectFlow records which function values flow into which func-typed
// variables, fields, and parameters: assignments, var declarations,
// composite literals, and call arguments. Flow through returns and
// maps/slices is not tracked (documented limitation; the repository's
// function values are observers and check hooks, all covered by the
// tracked forms).
func (p *Program) collectFlow(pkg *Package, f *ast.File) {
	info := pkg.TypesInfo
	record := func(obj types.Object, e ast.Expr) {
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
			return
		}
		for _, target := range p.funcRefs(pkg, e) {
			set := p.flow[obj]
			if set == nil {
				set = make(map[*FuncNode]bool)
				p.flow[obj] = set
			}
			set[target] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				record(assignedObj(info, lhs), x.Rhs[i])
			}
		case *ast.ValueSpec:
			if len(x.Names) != len(x.Values) {
				return true
			}
			for i, name := range x.Names {
				record(info.Defs[name], x.Values[i])
			}
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				record(info.Uses[key], kv.Value)
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, x)
			if fn == nil || p.byFunc[fn] == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil {
				return true
			}
			for i, arg := range x.Args {
				if i >= sig.Params().Len() {
					break // variadic tail beyond the last parameter
				}
				record(sig.Params().At(i), arg)
			}
		}
		return true
	})
}

func assignedObj(info *types.Info, lhs ast.Expr) types.Object {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := info.Defs[x]; obj != nil {
			return obj
		}
		return info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	}
	return nil
}

// funcRefs resolves an expression to the function nodes it can denote:
// a function literal, a reference to a declared function, or a method
// value.
func (p *Program) funcRefs(pkg *Package, e ast.Expr) []*FuncNode {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if node := p.byLit[x]; node != nil {
			return []*FuncNode{node}
		}
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[x].(*types.Func); ok {
			if node := p.byFunc[fn]; node != nil {
				return []*FuncNode{node}
			}
		}
	case *ast.SelectorExpr:
		var fn *types.Func
		if sel, ok := pkg.TypesInfo.Selections[x]; ok {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = pkg.TypesInfo.Uses[x.Sel].(*types.Func)
		}
		if fn != nil {
			if node := p.byFunc[fn]; node != nil {
				return []*FuncNode{node}
			}
		}
	case *ast.CallExpr:
		// A conversion like ObserverFunc(f) transports f unchanged.
		if len(x.Args) == 1 {
			if tv, ok := pkg.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
				return p.funcRefs(pkg, x.Args[0])
			}
		}
	}
	return nil
}

// collectIfaceImpls builds the restricted CHA table: for every
// interface declared in an analyzed package, every analyzed named type
// whose method set satisfies it contributes its methods as possible
// callees of the interface's.
func (p *Program) collectIfaceImpls() {
	var ifaces []*types.TypeName
	var concrete []types.Type
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, tn)
				}
				continue
			}
			concrete = append(concrete, named)
		}
	}
	for _, tn := range ifaces {
		iface := tn.Type().Underlying().(*types.Interface)
		for _, ct := range concrete {
			impl := types.NewPointer(ct)
			if !types.Implements(impl, iface) && !types.Implements(ct, iface) {
				continue
			}
			mset := types.NewMethodSet(impl)
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				sel := mset.Lookup(m.Pkg(), m.Name())
				if sel == nil {
					continue
				}
				fn, _ := sel.Obj().(*types.Func)
				if fn == nil {
					continue
				}
				if node := p.byFunc[fn]; node != nil {
					key := ifaceMethod{tn, m.Name()}
					p.ifaceImpls[key] = append(p.ifaceImpls[key], node)
				}
			}
		}
	}
}

// callTargets resolves a call expression to the analyzable functions
// it can invoke, or nil when every possible callee is outside the
// program (stdlib, export-data-only dependencies).
func (p *Program) callTargets(pkg *Package, call *ast.CallExpr) []*FuncNode {
	info := pkg.TypesInfo
	if fn := calleeFunc(info, call); fn != nil {
		if node := p.byFunc[fn]; node != nil {
			return []*FuncNode{node}
		}
		// Interface method: expand via CHA when the interface is
		// first-party.
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok {
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					if p.pkgOf(pkgPathOf(named.Obj())) != nil {
						return p.ifaceImpls[ifaceMethod{named.Obj(), fn.Name()}]
					}
				}
			}
		}
		return nil
	}
	// Dynamic call through a func-typed variable, field, or parameter.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil {
			return flowList(p.flow[obj])
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			return flowList(p.flow[sel.Obj()])
		}
	}
	return nil
}

func flowList(set map[*FuncNode]bool) []*FuncNode {
	if len(set) == 0 {
		return nil
	}
	out := make([]*FuncNode, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Body.Pos() < out[j].Body.Pos() })
	return out
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

func pkgPathOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// ---- per-function summaries -------------------------------------------------

// heldRef is one lock held at a program point: its global class (empty
// for locks the class resolver cannot name, e.g. function locals), the
// intra-procedural expression path that acquired it, and the
// acquisition site.
type heldRef struct {
	class string
	path  string
	pos   token.Pos
}

type acqEvent struct {
	class string
	path  string
	pos   token.Pos
	held  []heldRef
}

type blockEvent struct {
	desc string // human description: "channel send", "span emission (audit.Tracer.Emit)", ...
	pos  token.Pos
	held []heldRef
}

type callEvent struct {
	targets []*FuncNode
	pos     token.Pos
	held    []heldRef
}

// funcSummary is what the shared lock walker computes for one
// function: every lock acquisition, potentially-blocking operation,
// and resolvable call, each annotated with the set of locks held at
// that point. Events are recorded regardless of the held set — a
// function that blocks while holding nothing still "may block" for its
// callers.
type funcSummary struct {
	acquires []acqEvent
	blocks   []blockEvent
	calls    []callEvent
}

func (p *Program) summary(n *FuncNode) *funcSummary {
	p.build()
	if s := p.summaries[n]; s != nil {
		return s
	}
	s := &funcSummary{}
	p.summaries[n] = s
	w := &summaryWalker{prog: p, pkg: n.Pkg, sum: s}
	w.stmts(n.Body.List, map[string]heldRef{})
	return s
}

// ---- transitive facts -------------------------------------------------------

// acqChain is a witness that a function (transitively) acquires a lock
// class: the acquisition site and the call chain leading to it, outermost
// callee first. An empty via means the function acquires it directly.
type acqChain struct {
	pos token.Pos
	via []*FuncNode
}

// mayAcquire returns every lock class the function can acquire,
// directly or through calls, with one witness chain per class.
// Recursion through call cycles terminates by treating the
// in-progress function as acquiring nothing new.
func (p *Program) mayAcquire(n *FuncNode) map[string]acqChain {
	p.build()
	if m, ok := p.acquireMemo[n]; ok {
		return m
	}
	if p.acquireBusy[n] {
		return nil
	}
	p.acquireBusy[n] = true
	defer delete(p.acquireBusy, n)

	out := make(map[string]acqChain)
	s := p.summary(n)
	for _, a := range s.acquires {
		if a.class == "" {
			continue
		}
		if _, ok := out[a.class]; !ok {
			out[a.class] = acqChain{pos: a.pos}
		}
	}
	for _, c := range s.calls {
		for _, t := range c.targets {
			for class, sub := range p.mayAcquire(t) {
				if _, ok := out[class]; ok {
					continue
				}
				via := make([]*FuncNode, 0, 1+len(sub.via))
				via = append(append(via, t), sub.via...)
				out[class] = acqChain{pos: sub.pos, via: via}
			}
		}
	}
	p.acquireMemo[n] = out
	return out
}

// blockChain is a witness that a function may block: the description
// and site of the leaf blocking operation, and the call chain from the
// summarized function down to it (outermost callee first; empty when
// the function blocks directly).
type blockChain struct {
	desc string
	pos  token.Pos
	via  []*FuncNode
}

// mayBlock returns a witness that the function can reach a blocking
// operation, or nil. Like mayAcquire, call cycles terminate by
// treating in-progress functions as non-blocking.
func (p *Program) mayBlock(n *FuncNode) *blockChain {
	p.build()
	if p.blockDone[n] {
		return p.blockMemo[n]
	}
	if p.blockBusy[n] {
		return nil
	}
	p.blockBusy[n] = true
	defer delete(p.blockBusy, n)

	var found *blockChain
	s := p.summary(n)
	if len(s.blocks) > 0 {
		b := s.blocks[0]
		found = &blockChain{desc: b.desc, pos: b.pos}
	} else {
	outer:
		for _, c := range s.calls {
			for _, t := range c.targets {
				if sub := p.mayBlock(t); sub != nil {
					via := make([]*FuncNode, 0, 1+len(sub.via))
					via = append(append(via, t), sub.via...)
					found = &blockChain{desc: sub.desc, pos: sub.pos, via: via}
					break outer
				}
			}
		}
	}
	p.blockDone[n] = true
	p.blockMemo[n] = found
	return found
}

// witnessPath renders "f → g → h" for a chain starting at root.
func witnessPath(root *FuncNode, via []*FuncNode) string {
	parts := make([]string, 0, 1+len(via))
	parts = append(parts, root.Name())
	for _, n := range via {
		parts = append(parts, n.Name())
	}
	return strings.Join(parts, " → ")
}

// progFinding is a program-level diagnostic pinned to the package it
// should be reported from, so per-package passes emit each exactly
// once.
type progFinding struct {
	pkg *Package
	pos token.Pos
	msg string
}

// ---- shared lock walker -----------------------------------------------------

// summaryWalker is the shared statement walker: it tracks the held
// lock set with lockemit's original intra-procedural semantics
// (matching Lock/Unlock in a statement list, defer Unlock holding to
// function end, branch bodies inheriting a copy, goroutines starting
// lock-free, and immediately-invoked literals running under the
// caller's locks) and records acquisition, blocking, and call events
// into the function's summary.
type summaryWalker struct {
	prog *Program
	pkg  *Package
	sum  *funcSummary
}

func heldSnapshot(held map[string]heldRef) []heldRef {
	if len(held) == 0 {
		return nil
	}
	out := make([]heldRef, 0, len(held))
	for _, h := range held {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

func (w *summaryWalker) stmts(list []ast.Stmt, held map[string]heldRef) {
	for _, stmt := range list {
		w.stmt(stmt, held)
	}
}

func (w *summaryWalker) stmt(stmt ast.Stmt, held map[string]heldRef) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if path, op, ok := w.lockOp(s.X); ok {
			switch op {
			case lockAcquire:
				class := w.lockClass(s.X)
				w.sum.acquires = append(w.sum.acquires, acqEvent{
					class: class, path: path, pos: s.Pos(), held: heldSnapshot(held)})
				held[path] = heldRef{class: class, path: path, pos: s.Pos()}
			case lockRelease:
				delete(held, path)
			}
			return
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held to the end of this walk;
		// other deferred calls run at exit, outside any section this
		// walker can reason about, and are not scanned.
		if _, op, ok := w.lockOp(s.Call); ok && op == lockRelease {
			return
		}
	case *ast.SendStmt:
		w.block(s.Pos(), held, "channel send")
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.GoStmt:
		// The new goroutine does not hold the caller's locks; only the
		// argument expressions evaluate now. Its body is analyzed as an
		// independent root.
		for _, arg := range s.Call.Args {
			w.expr(arg, held)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.stmts(c.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.stmts(c.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		if hasCommClause(s) {
			w.block(s.Pos(), held, "select over channels")
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				w.stmts(c.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, copyHeld(held))
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	}
}

// expr scans an expression subtree. Function literal bodies are
// skipped unless immediately invoked — a stored literal is analyzed as
// its own root and reached through call edges instead.
func (w *summaryWalker) expr(e ast.Expr, held map[string]heldRef) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.block(x.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			if lit, ok := x.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal runs under the lock.
				w.stmts(lit.Body.List, copyHeld(held))
				for _, arg := range x.Args {
					w.expr(arg, held)
				}
				return false
			}
			w.call(x, held)
		}
		return true
	})
}

// call classifies a call: known-blocking operations become block
// events (by name class — Observe/Emit/Wait/Sleep — or by the
// syscall-backed stdlib list), and calls into analyzable functions
// become call edges for the transitive analyses.
func (w *summaryWalker) call(call *ast.CallExpr, held map[string]heldRef) {
	fn := calleeFunc(w.pkg.TypesInfo, call)
	if fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		switch {
		case fn.Name() == "Observe" && sig != nil && sig.Recv() != nil:
			w.block(call.Pos(), held, "observer event emission (%s.Observe)", recvTypeString(sig))
			return
		case fn.Name() == "Emit" && sig != nil && sig.Recv() != nil:
			w.block(call.Pos(), held, "span emission (%s.Emit)", recvTypeString(sig))
			return
		case fn.Name() == "Sleep" && fn.Pkg() != nil && fn.Pkg().Path() == "time":
			w.block(call.Pos(), held, "blocking call time.Sleep")
			return
		case fn.Name() == "Wait" && sig != nil && sig.Recv() != nil && !isSyncCondRecv(sig):
			w.block(call.Pos(), held, "blocking call %s.Wait", recvTypeString(sig))
			return
		case isBlockingStdlib(fn):
			w.block(call.Pos(), held, "blocking call %s.%s", fn.Pkg().Name(), fn.Name())
			return
		}
	}
	if targets := w.prog.callTargets(w.pkg, call); len(targets) > 0 {
		w.sum.calls = append(w.sum.calls, callEvent{
			targets: targets, pos: call.Pos(), held: heldSnapshot(held)})
	}
}

func (w *summaryWalker) block(pos token.Pos, held map[string]heldRef, format string, args ...any) {
	w.sum.blocks = append(w.sum.blocks, blockEvent{
		desc: fmt.Sprintf(format, args...), pos: pos, held: heldSnapshot(held)})
}

// blockingStdlib lists syscall-backed stdlib operations that can block
// indefinitely: file and network I/O, subprocess waits. The list only
// seeds the analysis — anything that reaches these through first-party
// calls is caught by reachability, so it does not need the exhaustive
// curation lockemit's hand-maintained emit list did.
var blockingStdlib = map[string]map[string]bool{
	"os":       {"Read": true, "Write": true, "ReadAt": true, "WriteAt": true, "Sync": true, "ReadFile": true, "WriteFile": true},
	"os/exec":  {"Run": true, "Wait": true, "Output": true, "CombinedOutput": true},
	"net":      {"Dial": true, "DialTimeout": true, "Listen": true, "Accept": true, "Read": true, "Write": true},
	"net/http": {"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true, "Serve": true, "ListenAndServe": true},
	"io":       {"ReadAll": true, "Copy": true, "CopyN": true, "ReadFull": true},
	"syscall":  {"Read": true, "Write": true, "Wait4": true},
}

func isBlockingStdlib(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	return blockingStdlib[fn.Pkg().Path()][fn.Name()]
}

// lockClass names the mutex a Lock call acquires globally:
// "pkgpath.Type.field" for fields of named structs, "pkgpath.var" for
// package-level mutexes, "" for locks the resolver cannot name
// (function locals, fields of anonymous structs). The class is what
// the declared lock order ranks and what inter-procedural witnesses
// carry across frames.
func (w *summaryWalker) lockClass(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return lockClassOfExpr(w.pkg.TypesInfo, sel.X)
}

func lockClassOfExpr(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return ""
		}
		named, ok := derefType(sel.Recv()).(*types.Named)
		if !ok {
			return ""
		}
		return fieldLockClass(named, x.Sel.Name)
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return ""
		}
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

func fieldLockClass(named *types.Named, field string) string {
	if named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

type lockOpKind int

const (
	lockAcquire lockOpKind = iota
	lockRelease
)

// lockOp recognizes x.Lock()/x.RLock()/x.Unlock()/x.RUnlock() calls on
// sync.Mutex or sync.RWMutex values with a nameable receiver path.
func (w *summaryWalker) lockOp(e ast.Expr) (path string, op lockOpKind, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	fn := calleeFunc(w.pkg.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", 0, false
	}
	recv := namedRecvName(sig)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", 0, false
	}
	path, ok = exprPath(sel.X)
	if !ok {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return path, lockAcquire, true
	case "Unlock", "RUnlock":
		return path, lockRelease, true
	}
	return "", 0, false
}

// exprPath renders a selector/identifier chain ("d.mu", "c.d.mu") as a
// stable key; expressions with calls or indexing are not tracked.
func exprPath(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := exprPath(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	case *ast.ParenExpr:
		return exprPath(x.X)
	}
	return "", false
}

func copyHeld(held map[string]heldRef) map[string]heldRef {
	out := make(map[string]heldRef, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func hasCommClause(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's static callee, or nil for dynamic
// calls (function values, interface conversions, built-ins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// namedRecvName returns the receiver's named-type name ("Mutex"),
// dereferencing a pointer receiver.
func namedRecvName(sig *types.Signature) string {
	if n, ok := derefType(sig.Recv().Type()).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func recvTypeString(sig *types.Signature) string {
	return types.TypeString(derefType(sig.Recv().Type()),
		func(p *types.Package) string { return p.Name() })
}

func isSyncCondRecv(sig *types.Signature) bool {
	n, ok := derefType(sig.Recv().Type()).(*types.Named)
	return ok && n.Obj().Name() == "Cond" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
}
