package analysis

// accounthonesty: every return path of a function annotated
// //watchman:accounted must charge the reference before returning.
// PR 3's honesty fix established the contract — all five shard.Load
// bypass paths (stale singleflight results, loader failures) charge via
// Cache.Account, because a reference that consulted the cache and is
// then dropped from the denominators overstates the cost-savings ratio.
// The contract lives in many early returns of shard.Load-shaped
// functions, exactly where a refactor quietly loses one; this analyzer
// walks every return path and demands a dominating accounting call.
//
// What counts as accounting: a call whose bare name is "Account", any
// name beginning with "Reference" or "reference" (ReferenceCanonical,
// ReferenceEntry, ReferenceExecuted, core's internal reference), and any
// same-package function annotated //watchman:accounting (shard's
// accountExternal). The path analysis is
// structural: an if/else (or a switch/select with a default) guarantees
// accounting only when every branch does; loop bodies guarantee nothing
// (they may run zero times); a deferred accounting call covers every
// return after the defer.

import (
	"go/ast"
	"strings"
)

// AccountHonesty reports return paths of //watchman:accounted functions
// that are not dominated by an accounting call.
var AccountHonesty = &Analyzer{
	Name: "accounthonesty",
	Doc: "every return path of a //watchman:accounted function must charge the " +
		"reference first (Account, Reference*, or a same-package " +
		"//watchman:accounting function) — the PR 3 honesty contract on " +
		"shard.Load bypass paths",
	Run: runAccountHonesty,
}

// runAccountHonesty collects the package's accounting vocabulary, then
// walks every annotated function.
func runAccountHonesty(pass *Pass) error {
	vocab := map[string]bool{"Account": true}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && funcDirective(fn, "//watchman:accounting") {
				vocab[fn.Name.Name] = true
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcDirective(fn, "//watchman:accounted") {
				continue
			}
			w := &accountWalker{pass: pass, vocab: vocab}
			acc := w.stmts(fn.Body.List, false)
			// A function body that falls off the end without returning has
			// no results; only explicit returns are charged, so nothing to
			// report here.
			_ = acc
		}
	}
	return nil
}

// accountWalker checks one annotated function.
type accountWalker struct {
	pass  *Pass
	vocab map[string]bool
}

// stmts walks a statement list with the incoming "accounted on every
// path reaching here" state and returns the state after the list.
func (w *accountWalker) stmts(list []ast.Stmt, acc bool) bool {
	for _, s := range list {
		acc = w.stmt(s, acc)
	}
	return acc
}

// stmt checks one statement and returns the accounted state after it.
func (w *accountWalker) stmt(s ast.Stmt, acc bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		if !acc && !w.hasAccounting(s) {
			w.pass.Report(s.Pos(),
				"return path is not dominated by an accounting call (Account/Reference*/"+
					"//watchman:accounting); a reference that consulted the cache must be charged")
		}
		return acc
	case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt:
		return acc || w.hasAccounting(s)
	case *ast.DeferStmt:
		// A deferred accounting call runs on every return after this point.
		return acc || w.hasAccounting(s)
	case *ast.IfStmt:
		if s.Init != nil {
			acc = acc || w.hasAccounting(s.Init)
		}
		acc = acc || w.hasAccounting(s.Cond)
		thenAcc := w.stmts(s.Body.List, acc)
		elseAcc := false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseAcc = w.stmts(e.List, acc)
		case *ast.IfStmt:
			elseAcc = w.stmt(e, acc)
		case nil:
			// No else: the fall-through path skipped the then-branch, so
			// the if guarantees nothing — unless the then-branch cannot
			// fall through (it terminates), in which case the code after
			// the if runs only via the fall-through path and the branch's
			// own returns were already checked.
			return acc
		}
		if terminates(s.Body) {
			return acc || elseAcc
		}
		if s.Else != nil {
			if eb, ok := s.Else.(*ast.BlockStmt); ok && terminates(eb) {
				return acc || thenAcc
			}
		}
		return acc || (thenAcc && elseAcc)
	case *ast.ForStmt:
		if s.Init != nil {
			acc = w.stmt(s.Init, acc)
		}
		w.stmts(s.Body.List, acc)
		return acc // zero iterations possible
	case *ast.RangeStmt:
		w.stmts(s.Body.List, acc)
		return acc
	case *ast.BlockStmt:
		return w.stmts(s.List, acc)
	case *ast.SwitchStmt:
		if s.Init != nil {
			acc = w.stmt(s.Init, acc)
		}
		all, hasDefault := true, false
		for _, cc := range s.Body.List {
			c := cc.(*ast.CaseClause)
			if c.List == nil {
				hasDefault = true
			}
			if !w.stmts(c.Body, acc) {
				all = false
			}
		}
		return acc || (all && hasDefault)
	case *ast.TypeSwitchStmt:
		all, hasDefault := true, false
		for _, cc := range s.Body.List {
			c := cc.(*ast.CaseClause)
			if c.List == nil {
				hasDefault = true
			}
			if !w.stmts(c.Body, acc) {
				all = false
			}
		}
		return acc || (all && hasDefault)
	case *ast.SelectStmt:
		all := true
		for _, cc := range s.Body.List {
			if !w.stmts(cc.(*ast.CommClause).Body, acc) {
				all = false
			}
		}
		return acc || (all && len(s.Body.List) > 0)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, acc)
	default:
		return acc
	}
}

// terminates reports whether a block cannot fall through: its last
// statement is a return or an unconditional control transfer.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// hasAccounting reports whether the node contains a call to a vocabulary
// function, not counting calls inside nested function literals (those
// run elsewhere) — except for defer statements, whose literal body runs
// on this function's return paths.
func (w *accountWalker) hasAccounting(n ast.Node) bool {
	found := false
	inDefer := false
	if _, ok := n.(*ast.DeferStmt); ok {
		inDefer = true
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok && !inDefer {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		default:
			return true
		}
		if w.vocab[name] || strings.HasPrefix(name, "Reference") || strings.HasPrefix(name, "reference") {
			found = true
			return false
		}
		return true
	})
	return found
}
