// Package analysis is the repository's static-analysis suite: a set of
// custom analyzers that mechanize the load-bearing invariants earlier
// PRs established only as prose and tests — accounting honesty on every
// shard.Load bypass path, encode-outside-locks for snapshots, the
// allocation-free hit path, replay-deterministic time sourcing,
// exhaustive handling of lifecycle event kinds, and no exported code or
// config field that only tests reach.
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic) on the standard library alone, because
// this module carries no external dependencies: packages are loaded and
// type-checked by the loader in loader.go, and fixtures run under the
// analysistest-style harness of the analysistest subpackage. If the module ever
// grows an x/tools dependency the analyzers port mechanically: each Run
// already consumes only Fset/Files/Pkg/TypesInfo/Report.
//
// The annotation vocabulary the analyzers understand is documented in
// docs/ANALYSIS.md:
//
//	//watchman:accounted   — every return path must account the reference
//	//watchman:accounting  — this function IS an accounting primitive
//	//watchman:hotpath     — no allocating constructs permitted
//	//watchman:timesource  — file may read the wall clock
//	//lint:ignore name why — suppress one diagnostic, with justification
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite ports mechanically
// if the module ever takes on the real dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, //lint:ignore
	// directives and docs/ANALYSIS.md headings.
	Name string
	// Doc is the one-paragraph description `watchmanlint -list` prints.
	Doc string
	// Run checks one package and reports findings via Pass.Report.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	// Analyzer is the checker being run.
	Analyzer *Analyzer
	// Fset resolves token positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression and identifier facts.
	TypesInfo *types.Info
	// Module is every package of the run, Pkg's included: the non-test
	// view of the whole tree an analyzer needs to see callers outside
	// the package it checks.
	Module []*Package

	diags []Diagnostic
	// memo holds what analyzers derive from Module, shared by the passes
	// of one RunAll.
	memo map[*Analyzer]any
}

// Report records one finding.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding, resolved to a file position.
type Diagnostic struct {
	// Analyzer names the checker that produced the finding.
	Analyzer string `json:"analyzer"`
	// Position locates the finding.
	Position token.Position `json:"-"`
	// Message states the violation.
	Message string `json:"message"`
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// All returns every analyzer in the suite, in stable order. It is the
// single registration point: cmd/watchmanlint runs exactly this list and
// cmd/doccheck verifies docs/ANALYSIS.md documents exactly this list.
func All() []*Analyzer {
	return []*Analyzer{
		AccountHonesty,
		LockEncode,
		HotPathAlloc,
		TimeSource,
		EventExhaustive,
		Unreferenced,
	}
}

// Run executes one analyzer over one loaded package of a run's packages
// and returns its findings with //lint:ignore suppressions already
// applied.
func Run(a *Analyzer, pkg *Package, module []*Package) ([]Diagnostic, error) {
	return run(a, pkg, module, map[*Analyzer]any{})
}

// run is Run with the memo the passes of one run share.
func run(a *Analyzer, pkg *Package, module []*Package, memo map[*Analyzer]any) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Module:    module,
		memo:      memo,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	diags := suppress(pass.diags, pkg)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// RunAll executes every analyzer in All over every package of pkgs, a
// selection of module: the run's whole view.
func RunAll(pkgs, module []*Package) ([]Diagnostic, error) {
	var out []Diagnostic
	memo := map[*Analyzer]any{}
	for _, pkg := range pkgs {
		for _, a := range All() {
			diags, err := run(a, pkg, module, memo)
			if err != nil {
				return nil, err
			}
			out = append(out, diags...)
		}
	}
	return out, nil
}

// suppress drops diagnostics covered by a `//lint:ignore <analyzer>
// <justification>` comment on the same line or the line immediately
// above. The justification is mandatory: a bare ignore suppresses
// nothing, so every exception on record says why it is one.
func suppress(diags []Diagnostic, pkg *Package) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	// ignores maps file -> line -> analyzer names ignored on that line.
	ignores := map[string]map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := ignores[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					ignores[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], name)
			}
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if ignored(ignores, d, 0) || ignored(ignores, d, -1) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ignored reports whether the diagnostic's analyzer is ignored at its
// line offset by delta.
func ignored(ignores map[string]map[int][]string, d Diagnostic, delta int) bool {
	for _, name := range ignores[d.Position.Filename][d.Position.Line+delta] {
		if name == d.Analyzer || name == "all" {
			return true
		}
	}
	return false
}

// parseIgnore extracts the analyzer name from a well-formed ignore
// directive: `//lint:ignore <analyzer> <justification>`, justification
// non-empty.
func parseIgnore(text string) (name string, ok bool) {
	const prefix = "//lint:ignore "
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	fields := strings.Fields(text[len(prefix):])
	if len(fields) < 2 {
		return "", false // no justification: does not suppress
	}
	return fields[0], true
}

// funcDirective reports whether the function's doc comment carries the
// given //watchman: directive line.
func funcDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// fileDirective reports whether any comment in the file is exactly the
// given //watchman: directive line.
func fileDirective(f *ast.File, directive string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == directive {
				return true
			}
		}
	}
	return false
}
