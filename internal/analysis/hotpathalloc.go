package analysis

// hotpathalloc: functions annotated //watchman:hotpath may not contain
// allocating constructs. The reference front's hit path and the unsampled
// what-if tax cost zero allocations per reference — properties pinned by
// allocation tests and benchmarks, but only at the call sites they
// drive. The annotation turns the property into a reviewable
// contract on the function itself: fmt calls, map/slice literals, makes,
// news, string conversions, growing appends, capturing closures and
// composite-value interface boxing are all flagged. One conversion is
// exempt because the compiler guarantees it: string(b) as the direct
// operand of a comparison reads b in place (the reference front probes
// the signature index that way). The check is
// intraprocedural by design — calls into other functions are that
// function's business; annotate the callee too if it shares the
// contract.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc reports allocating constructs inside functions annotated
// //watchman:hotpath.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "forbids allocating constructs (fmt, map/slice literals, make/new, " +
		"growing append, capturing closures, composite-value interface boxing, " +
		"string conversions) in functions annotated //watchman:hotpath",
	Run: runHotPathAlloc,
}

// runHotPathAlloc checks every annotated function.
func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcDirective(fn, "//watchman:hotpath") {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

// checkHotFunc walks one annotated function body.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	// compared holds the conversions that are direct operands of a
	// comparison; Inspect reaches the comparison before its operands.
	compared := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if isComparison(n.Op) {
				for _, operand := range [...]ast.Expr{n.X, n.Y} {
					if call, ok := ast.Unparen(operand).(*ast.CallExpr); ok {
						compared[call] = true
					}
				}
			}
		case *ast.FuncLit:
			if capturesOuter(pass, n, fn) {
				pass.Report(n.Pos(), "closure captures outer variables and allocates on the hot path")
			}
			// Keep descending: allocations inside the literal still run on
			// this path if the literal is invoked here, and flagging them
			// is the conservative choice.
			return true
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			switch types.Unalias(tv.Type).Underlying().(type) {
			case *types.Map:
				pass.Report(n.Pos(), "map literal allocates on the hot path")
			case *types.Slice:
				pass.Report(n.Pos(), "slice literal allocates on the hot path")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Report(n.Pos(), "&composite literal allocates on the hot path")
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, compared[n])
		}
		return true
	})
}

// checkHotCall classifies one call expression inside a hot function.
// compared marks a direct operand of a comparison.
func checkHotCall(pass *Pass, call *ast.CallExpr, compared bool) {
	// Type conversions: string <-> []byte/[]rune copy and allocate — except
	// string(bytes) consumed by a comparison, which the compiler evaluates
	// over the slice's own memory.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pass.TypesInfo.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		toString := anyTerm(dst, isString) && anyTerm(src, isByteOrRuneSlice)
		fromString := anyTerm(dst, isByteOrRuneSlice) && anyTerm(src, isString)
		if fromString || (toString && !compared) {
			pass.Report(call.Pos(), "string conversion allocates on the hot path")
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Report(call.Pos(), "make allocates on the hot path")
			case "new":
				pass.Report(call.Pos(), "new allocates on the hot path")
			case "append":
				pass.Report(call.Pos(), "append may grow its backing array on the hot path; index into preallocated storage instead")
			}
			return
		}
	}
	if pkg := calleePackage(pass, call); pkg != nil && pkg.Path() == "fmt" {
		pass.Report(call.Pos(), "fmt call allocates on the hot path")
		return
	}
	checkBoxing(pass, call)
}

// checkBoxing flags composite values (structs, arrays, slices, maps)
// passed to interface-typed parameters: those conversions heap-allocate.
// Basic values and pointers are excluded — escape analysis routinely
// keeps them off the heap, and flagging them would drown the signal (the
// allocation benchmarks remain the oracle for those).
func checkBoxing(pass *Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := types.Unalias(tv.Type).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Struct, *types.Array, *types.Slice, *types.Map:
			pass.Report(arg.Pos(),
				"boxing a %s into an interface allocates on the hot path", types.TypeString(at, types.RelativeTo(pass.Pkg)))
		}
	}
}

// isComparison reports whether op compares its operands.
func isComparison(op token.Token) bool {
	return op == token.EQL || op == token.NEQ ||
		op == token.LSS || op == token.LEQ || op == token.GTR || op == token.GEQ
}

// anyTerm reports whether pred holds for t's underlying type or, when t
// is a type parameter, for any type in its constraint: a conversion in a
// generic body allocates whenever one of its instantiations does.
func anyTerm(t types.Type, pred func(types.Type) bool) bool {
	tp, ok := types.Unalias(t).(*types.TypeParam)
	if !ok {
		return pred(t.Underlying())
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch e := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < e.Len(); j++ {
				if pred(e.Term(j).Type().Underlying()) {
					return true
				}
			}
		default:
			if pred(e.Underlying()) {
				return true
			}
		}
	}
	return false
}

// isString reports whether the underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether the underlying type is []byte or
// []rune.
func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// capturesOuter reports whether the function literal references a
// variable declared in the enclosing function (including its receiver
// and parameters) — the case where materializing the closure allocates.
func capturesOuter(pass *Pass, lit *ast.FuncLit, enclosing *ast.FuncDecl) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		pos := v.Pos()
		if pos >= enclosing.Pos() && pos < enclosing.End() &&
			!(pos >= lit.Pos() && pos < lit.End()) {
			captured = true
			return false
		}
		return true
	})
	return captured
}
