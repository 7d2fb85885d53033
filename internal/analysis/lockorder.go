package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder lifts the PR 1 mutex discipline from one function to the
// whole module. It identifies every sync.(RW)Mutex by class — the named
// struct field or package-level variable that owns it — and builds the
// module-wide acquisition graph: an edge A→B is recorded whenever B is
// locked while A is held, directly or through any chain of calls the
// shared call graph can see. Two shapes are reported:
//
//   - acquisition cycles (A held while locking B somewhere, B held
//     while locking A somewhere else): the classic deadlock that
//     concurrent peers, transports and admission workers would
//     otherwise invite;
//   - a lock held across a call into another package that blocks
//     (channel operation, net dial, Transport.Dial RPC): the
//     intra-package case is mutex-across-block's job, but a dial
//     hiding two packages deep is invisible to it.
//
// Classes are instance-insensitive: two different values of one struct
// type share a class, so self-edges (locking two sessions in sequence)
// are deliberately not reported.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag cyclic mutex acquisition orders and locks held across cross-package blocking calls",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	mod := pass.Mod
	mod.lockOnce.Do(func() { mod.lockDiags = computeLockOrder(mod) })
	emitPending(pass, mod.lockDiags)
}

// mutexClassOf names the lock behind the receiver expression of a
// Lock/Unlock call: "pkgpath.Type.field" for struct-owned mutexes,
// "pkgpath.var" for package-level ones, and a function-local fallback
// otherwise.
func mutexClassOf(info *types.Info, pkgPath string, x ast.Expr) string {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return pkgPath + ":" + types.ExprString(x)
}

// shortClass renders a class for diagnostics: the import path shrinks
// to its base ("registry.Registry.mu").
func shortClass(class string) string {
	head, rest, ok := strings.Cut(class, ":")
	if !ok {
		head, rest = class, ""
	}
	if i := strings.LastIndex(head, "/"); i >= 0 {
		head = head[i+1:]
	}
	if rest != "" {
		return head + ":" + rest
	}
	return head
}

// lockClassCall classifies call as a sync.(RW)Mutex acquisition or
// release, returning the mutex class and +1/-1.
func lockClassCall(info *types.Info, pkgPath string, call *ast.CallExpr) (class string, delta int, ok bool) {
	fun, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	d, named := lockMethods[fun.Sel.Name]
	if !named {
		return "", 0, false
	}
	sel, isMethod := info.Selections[fun]
	if !isMethod {
		return "", 0, false
	}
	m, isFunc := sel.Obj().(*types.Func)
	if !isFunc || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", 0, false
	}
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", 0, false
	}
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return "", 0, false
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return mutexClassOf(info, pkgPath, fun.X), d, true
	}
	return "", 0, false
}

// dialMethods are RPC-shaped interface methods: a dynamic call to one
// of these while a mutex is held serializes the node on the network.
var dialMethods = map[string]bool{"Dial": true, "DialTimeout": true}

// blockReason computes, to a fixpoint over the call graph, why each
// module function blocks ("" when it does not). Direct reasons are
// channel operations, known-blocking stdlib calls and dynamic dials;
// indirect ones flow through static calls outside function literals.
func (m *Module) blockReason() map[*FuncInfo]string {
	m.blockOnce.Do(func() {
		m.blocking = make(map[*FuncInfo]string)
		direct := func(fi *FuncInfo) string {
			reason := ""
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				if reason != "" {
					return false
				}
				switch n := n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false
				case *ast.SendStmt:
					reason = "sends on a channel"
				case *ast.SelectStmt:
					reason = "selects on channels"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						reason = "receives from a channel"
					}
				case *ast.RangeStmt:
					if t := fi.Pkg.Info.Types[n.X].Type; t != nil {
						if _, ok := t.Underlying().(*types.Chan); ok {
							reason = "ranges over a channel"
						}
					}
				case *ast.CallExpr:
					if r := directCallBlocks(fi.Pkg.Info, n); r != "" {
						reason = r
					}
				}
				return reason == ""
			})
			return reason
		}
		for changed := true; changed; {
			changed = false
			for _, pkg := range m.Pkgs {
				for _, fi := range m.Funcs(pkg) {
					if m.blocking[fi] != "" {
						continue
					}
					if r := direct(fi); r != "" {
						m.blocking[fi] = r
						changed = true
						continue
					}
					for _, e := range fi.Edges() {
						if e.Kind != EdgeCall || e.InFuncLit {
							continue
						}
						if m.blocking[e.Callee] != "" {
							m.blocking[fi] = "calls " + e.Callee.Name() + ", which " + m.blocking[e.Callee]
							changed = true
							break
						}
					}
				}
			}
		}
	})
	return m.blocking
}

// directCallBlocks reports why a single call blocks, "" if it does not
// visibly block. Module callees are resolved by the fixpoint, not here.
func directCallBlocks(info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			mfn, ok := sel.Obj().(*types.Func)
			if !ok {
				return ""
			}
			if pkg := mfn.Pkg(); pkg != nil && syncBlockingMethods[pkg.Name()][mfn.Name()] {
				return "calls " + pkg.Name() + "." + mfn.Name()
			}
			// A dynamic dial: the Transport interface, or anything
			// shaped like it.
			if types.IsInterface(sel.Recv()) && dialMethods[mfn.Name()] {
				return "dials the transport"
			}
			return ""
		}
		if pn, ok := info.Uses[identOf(fun.X)].(*types.PkgName); ok {
			if blockingPkgFuncs[pn.Imported().Path()][fun.Sel.Name] {
				return "calls " + pn.Imported().Name() + "." + fun.Sel.Name
			}
		}
	}
	return ""
}

// lockAcquires computes, to a fixpoint, every mutex class each function
// may acquire, directly or through static calls.
func (m *Module) lockAcquires() map[*FuncInfo]map[string]bool {
	m.acqOnce.Do(func() {
		m.acquires = make(map[*FuncInfo]map[string]bool)
		add := func(fi *FuncInfo, class string) bool {
			set := m.acquires[fi]
			if set == nil {
				set = make(map[string]bool)
				m.acquires[fi] = set
			}
			if set[class] {
				return false
			}
			set[class] = true
			return true
		}
		for _, pkg := range m.Pkgs {
			for _, fi := range m.Funcs(pkg) {
				ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					if call, ok := n.(*ast.CallExpr); ok {
						if class, delta, ok := lockClassCall(pkg.Info, pkg.ImportPath, call); ok && delta > 0 {
							add(fi, class)
						}
					}
					return true
				})
			}
		}
		for changed := true; changed; {
			changed = false
			for _, pkg := range m.Pkgs {
				for _, fi := range m.Funcs(pkg) {
					for _, e := range fi.Edges() {
						if e.Kind != EdgeCall || e.InFuncLit {
							continue
						}
						for class := range m.acquires[e.Callee] {
							if add(fi, class) {
								changed = true
							}
						}
					}
				}
			}
		}
	})
	return m.acquires
}

// lockEdge is one observed acquisition ordering: to was locked (or
// reachable-locked) while from was held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
	via      string // "" for a direct lock, callee name otherwise
}

// computeLockOrder walks every function with held-set tracking, records
// the acquisition graph and emits cycle plus held-across-blocking
// diagnostics.
func computeLockOrder(mod *Module) map[*Package][]pending {
	diags := make(map[*Package][]pending)
	blocking := mod.blockReason()
	acquires := mod.lockAcquires()

	edges := make(map[string]map[string]lockEdge)
	addEdge := func(e lockEdge) {
		if e.from == e.to {
			return // instance-insensitive classes: self-order is legal
		}
		m := edges[e.from]
		if m == nil {
			m = make(map[string]lockEdge)
			edges[e.from] = m
		}
		if prev, ok := m[e.to]; !ok || e.pos < prev.pos {
			m[e.to] = e
		}
	}

	for _, pkg := range mod.Pkgs {
		for _, fi := range mod.Funcs(pkg) {
			if fi.Test {
				continue // lockorder audits library code, not test scaffolding
			}
			w := &lockWalker{
				info:    pkg.Info,
				pkgPath: pkg.ImportPath,
				onLock: func(class string, pos token.Pos, held map[string]bool) {
					for from := range held {
						addEdge(lockEdge{from: from, to: class, pos: pos, pkg: pkg})
					}
				},
				onCall: func(call *ast.CallExpr, held map[string]bool) {
					if len(held) == 0 {
						return
					}
					heldSorted := sortedKeys(held)
					// Dynamic dial under a lock: invisible to
					// mutex-across-block, fatal in the prototype.
					if r := directCallBlocks(pkg.Info, call); r == "dials the transport" {
						diags[pkg] = append(diags[pkg], pending{
							pos: call.Pos(),
							msg: fmt.Sprintf("transport dial while %s is held; release the mutex before any RPC", shortClass(heldSorted[0])),
						})
						return
					}
					callee := mod.StaticCallee(pkg.Info, call)
					if callee == nil {
						return
					}
					for from := range held {
						for to := range acquires[callee] {
							addEdge(lockEdge{from: from, to: to, pos: call.Pos(), pkg: pkg, via: callee.Name()})
						}
					}
					if callee.Pkg != pkg {
						if r := blocking[callee]; r != "" {
							diags[pkg] = append(diags[pkg], pending{
								pos: call.Pos(),
								msg: fmt.Sprintf("call into %s, which %s, while %s is held; release the mutex before crossing packages", callee.Name(), r, shortClass(heldSorted[0])),
							})
						}
					}
				},
			}
			w.stmts(fi.Decl.Body.List, map[string]bool{})
		}
	}

	// Cycle detection over the class graph: any edge whose endpoints
	// reach each other participates in a deadlock-capable order.
	for _, from := range sortedEdgeKeys(edges) {
		for _, to := range sortedKeys(boolKeys(edges[from])) {
			if !classReaches(edges, to, from) {
				continue
			}
			e := edges[from][to]
			diags[e.pkg] = append(diags[e.pkg], pending{
				pos: e.pos,
				msg: lockCycleMessage(e),
			})
		}
	}
	return diags
}

func lockCycleMessage(e lockEdge) string {
	via := ""
	if e.via != "" {
		via = " (via " + e.via + ")"
	}
	return fmt.Sprintf("lock order cycle: %s acquired%s while %s is held, and elsewhere %s is acquired while %s is held; pick one global order",
		shortClass(e.to), via, shortClass(e.from), shortClass(e.from), shortClass(e.to))
}

// classReaches reports whether from reaches to in the acquisition graph.
func classReaches(edges map[string]map[string]lockEdge, from, to string) bool {
	seen := map[string]bool{}
	var dfs func(c string) bool
	dfs = func(c string) bool {
		if c == to {
			return true
		}
		if seen[c] {
			return false
		}
		seen[c] = true
		for next := range edges[c] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func boolKeys(m map[string]lockEdge) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func sortedEdgeKeys(edges map[string]map[string]lockEdge) []string {
	out := make([]string, 0, len(edges))
	for k := range edges {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockWalker tracks the held-mutex class set through a function body in
// source order, with the same branch-intersection bias as
// mutex-across-block: a lock counts as held after a branch only when
// every non-terminating path holds it.
type lockWalker struct {
	info    *types.Info
	pkgPath string
	onLock  func(class string, pos token.Pos, held map[string]bool)
	onCall  func(call *ast.CallExpr, held map[string]bool)
}

func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) map[string]bool {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) map[string]bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if class, delta, ok := lockClassCall(w.info, w.pkgPath, call); ok {
				if delta > 0 {
					w.onLock(class, call.Pos(), held)
					held[class] = true
				} else {
					delete(held, class)
				}
				return held
			}
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held for the rest of the
		// function; a deferred blocking call runs after the body.
		if class, delta, ok := lockClassCall(w.info, w.pkgPath, s.Call); ok && delta > 0 {
			w.onLock(class, s.Call.Pos(), held)
			held[class] = true
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, map[string]bool{})
		}
	case *ast.SendStmt:
		w.scanExpr(s.Value, held)
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				w.stmts(cc.Body, copySet(held))
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		bodyOut := w.stmts(s.Body.List, copySet(held))
		var elseOut map[string]bool
		if s.Else != nil {
			elseOut = w.stmt(s.Else, copySet(held))
		} else {
			elseOut = held
		}
		return mergeBranches(held,
			branch{out: bodyOut, terminates: terminates(s.Body.List)},
			branch{out: elseOut, terminates: s.Else != nil && stmtTerminates(s.Else)})
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		return w.stmts(s.Body.List, held)
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		return w.stmts(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copySet(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copySet(held))
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return held
}

// scanExpr visits calls inside an expression without descending into
// function literals (their bodies run on another schedule).
func (w *lockWalker) scanExpr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			if _, _, isLock := lockClassCall(w.info, w.pkgPath, n); !isLock {
				w.onCall(n, held)
			}
		}
		return true
	})
}
