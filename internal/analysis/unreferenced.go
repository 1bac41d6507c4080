package analysis

// unreferenced: exported code and configuration knobs that only tests
// reach. The paper's manager is three rules — LNC-R replacement, LNC-A
// admission, §2.4 retained information — and every exported function no
// program calls, and every Config field no program sets, is surface a
// reader must learn and a refactor must carry for nothing. Tests reach
// such code, so no test notices it is dead; this check judges references
// by the module's non-test files alone.

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Unreferenced reports exported functions, methods and constants no
// non-test file references, and exported Config/Options fields no
// non-test file outside the declaring package assigns.
var Unreferenced = &Analyzer{
	Name: "unreferenced",
	Doc: "exported functions, methods and constants must be referenced by a non-test " +
		"file of the module, and exported Config/Options fields assigned by a non-test " +
		"file outside their package: code and knobs only tests reach are deleted, " +
		"made constants, or kept under a justified ignore",
	Run: runUnreferenced,
}

// dynamicMethods are methods the standard library finds by dynamic
// interface assertion (fmt's Stringer, encoding/json's marshalers): a
// type that has one is used through it without the module naming the
// interface.
var dynamicMethods = map[string]string{
	"String":        "func() string",
	"MarshalJSON":   "func() ([]byte, error)",
	"UnmarshalJSON": "func([]byte) error",
}

// runUnreferenced checks one non-main package against the references of
// every package in the run.
func runUnreferenced(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // main packages only count as callers
	}
	idx, ok := pass.memo[pass.Analyzer].(*moduleIndex)
	if !ok {
		idx = indexModule(pass.Module)
		pass.memo[pass.Analyzer] = idx
	}
	if !idx.imported[pass.Pkg.Path()] {
		return nil // a package only tests import is test support
	}
	cited := facadeCitations(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
				switch {
				case !d.Name.IsExported() || idx.used[fn]:
				case d.Recv == nil && !cited[fn.Name()]:
					pass.Report(d.Name.Pos(), "exported function %s is referenced by no non-test file", fn.Name())
				case d.Recv != nil && !idx.implements(fn):
					recv := types.TypeString(fn.Type().(*types.Signature).Recv().Type(), types.RelativeTo(pass.Pkg))
					pass.Report(d.Name.Pos(), "exported method %s.%s is referenced by no non-test file",
						strings.TrimPrefix(recv, "*"), fn.Name())
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if d.Tok == token.CONST && name.IsExported() && !idx.used[pass.TypesInfo.Defs[name]] && !cited[name.Name] {
								pass.Report(name.Pos(), "exported constant %s is referenced by no non-test file", name.Name)
							}
						}
					case *ast.TypeSpec:
						st, ok := s.Type.(*ast.StructType)
						if !ok || s.Name.Name != "Config" && s.Name.Name != "Options" {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() && !idx.assigned[pass.TypesInfo.Defs[name]] {
									pass.Report(name.Pos(), "config field %s.%s is assigned by no non-test file outside package %s",
										s.Name.Name, name.Name, pass.Pkg.Name())
								}
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// moduleIndex is what the non-test files of a run reference.
type moduleIndex struct {
	// used holds every object an identifier refers to.
	used map[types.Object]bool
	// assigned holds every struct field a package other than its own
	// assigns: by composite literal, assignment, ++/-- or taking its
	// address.
	assigned map[types.Object]bool
	// imported holds the import paths some package of the run imports.
	imported map[string]bool
	// ifaces are the non-empty interface types the run uses: the types
	// of its expressions, variables and fields, and the parameters and
	// results of the functions it refers to.
	ifaces []*types.Interface
}

// indexModule builds the index of a run's packages.
func indexModule(module []*Package) *moduleIndex {
	idx := &moduleIndex{used: map[types.Object]bool{}, assigned: map[types.Object]bool{}, imported: map[string]bool{}}
	seen := map[types.Type]bool{}
	var addIface func(t types.Type)
	addIface = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 {
				idx.ifaces = append(idx.ifaces, u)
			}
		case *types.Signature:
			for _, tu := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tu.Len(); i++ {
					addIface(tu.At(i).Type())
				}
			}
		}
	}
	for _, pkg := range module {
		for _, imp := range pkg.Types.Imports() {
			idx.imported[imp.Path()] = true
		}
		info := pkg.TypesInfo
		for _, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			idx.used[obj] = true
			addIface(obj.Type())
		}
		for _, tv := range info.Types {
			addIface(tv.Type)
		}
		assign := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != pkg.Types {
				idx.assigned[v.Origin()] = true
			}
		}
		field := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					assign(s.Obj())
				}
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						field(lhs)
					}
				case *ast.IncDecStmt:
					field(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						field(n.X)
					}
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV && ok {
							if id, isID := kv.Key.(*ast.Ident); isID {
								assign(info.Uses[id])
							}
						} else if ok && i < st.NumFields() {
							assign(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}
	return idx
}

// implements reports whether a method is reachable without being named:
// its receiver type satisfies an interface of the run that declares it,
// or the standard library finds it by dynamic assertion.
func (idx *moduleIndex) implements(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if want, ok := dynamicMethods[fn.Name()]; ok && types.TypeString(sig, nil) == want {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range idx.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj != nil &&
			(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}

// facadeCitations returns the names README.md and docs/*.md cite as
// pkg.Name when the checked package is a facade: a package whose
// directory holds a README.md (the module root). A facade's documented
// API is its contract even where only examples and tests call it; the
// examples themselves are main packages, so what they call is
// referenced.
func facadeCitations(pass *Pass) map[string]bool {
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Package).Filename)
	text, err := os.ReadFile(filepath.Join(dir, "README.md"))
	if err != nil {
		return nil
	}
	docs, _ := filepath.Glob(filepath.Join(dir, "docs", "*.md"))
	for _, file := range docs {
		data, _ := os.ReadFile(file) // an unreadable doc cites nothing; its names are reported
		text = append(text, data...)
	}
	cite := regexp.MustCompile(`\b` + regexp.QuoteMeta(pass.Pkg.Name()) + `\.([A-Z]\w*)`)
	cited := map[string]bool{}
	for _, m := range cite.FindAllSubmatch(text, -1) {
		cited[string(m[1])] = true
	}
	return cited
}
