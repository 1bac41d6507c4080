package analysis

// timesource: raw wall-clock reads are forbidden outside designated
// time-source files — internal/clock and bench/clock.go. WATCHMAN's
// replay determinism (the golden TPC-D equivalence tests, warm-restart
// bit-identity, the what-if ghost replays) holds only because every
// timestamp flows through an injectable time source — core works in
// logical seconds from the trace and clock.Wall adapts real time to that
// scale. A stray time.Now() in the lifecycle silently re-introduces
// wall-clock dependence that no unit test catches until a replay
// diverges.

import (
	"go/ast"
	"go/types"
)

// TimeSource reports calls to time.Now and time.Since outside files
// carrying the //watchman:timesource directive.
var TimeSource = &Analyzer{
	Name: "timesource",
	Doc: "forbids raw time.Now/time.Since outside //watchman:timesource files, " +
		"protecting replay determinism: all timestamps must flow through " +
		"internal/clock, bench/clock.go or the injected time source",
	Run: runTimeSource,
}

// runTimeSource walks every non-directive file for selector calls into
// the time package.
func runTimeSource(pass *Pass) error {
	for _, f := range pass.Files {
		if fileDirective(f, "//watchman:timesource") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			pass.Report(call.Pos(),
				"raw time.%s() outside a //watchman:timesource file; route it through the package's clock file or the injected time source",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
