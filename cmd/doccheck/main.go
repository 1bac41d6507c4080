// Command doccheck is the repository's documentation linter, run by the CI
// docs job. It enforces five invariants without external dependencies:
//
//  1. every exported identifier (functions, methods, types, consts, vars)
//     in every non-test Go file carries a doc comment, and every package
//     has a package-level doc comment — the revive/golint "exported" rule;
//  2. every relative markdown link in README.md and docs/*.md resolves to
//     a file that exists;
//  3. every analyzer registered in the static-analysis suite (the list
//     cmd/watchmanlint runs) is documented under a `## <name>` heading in
//     docs/ANALYSIS.md, and no heading there names an analyzer that no
//     longer exists;
//  4. every benchmark named in README.md or docs/*.md (BenchmarkXxx, by
//     Go's naming rule) is declared as a func in some _test.go file of
//     the module;
//  5. every watchman.X cited in README.md or docs/*.md names an exported
//     identifier of the root package, so a trimmed facade cannot leave a
//     snippet behind that no longer compiles.
//
// Usage:
//
//	go run ./cmd/doccheck [dir]
//
// dir defaults to the current directory (the module root). doccheck prints
// one line per violation and exits non-zero if it found any.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkGoDocs(root)...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkAnalyzerDocs(root)...)
	problems = append(problems, checkBenchmarkCitations(root)...)
	problems = append(problems, checkFacadeCitations(root)...)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// checkGoDocs walks every non-test Go file under root and reports exported
// identifiers without doc comments and packages without a package comment.
func checkGoDocs(root string) []string {
	var problems []string
	// pkgDoc maps a directory to whether any of its files carries a
	// package doc comment; pkgSeen records the position to report.
	pkgDoc := map[string]bool{}
	pkgFirst := map[string]string{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: parse error: %v", path, err))
			return nil
		}
		dir := filepath.Dir(path)
		if f.Doc != nil {
			pkgDoc[dir] = true
		} else if _, ok := pkgDoc[dir]; !ok {
			pkgDoc[dir] = false
		}
		if _, ok := pkgFirst[dir]; !ok {
			pkgFirst[dir] = path
		}
		problems = append(problems, checkFileDecls(fset, path, f)...)
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("walk: %v", err))
	}
	for dir, ok := range pkgDoc {
		if !ok {
			problems = append(problems,
				fmt.Sprintf("%s: package has no package-level doc comment in any file", pkgFirst[dir]))
		}
	}
	return problems
}

// checkFileDecls reports exported top-level declarations in one file that
// lack doc comments.
func checkFileDecls(fset *token.FileSet, path string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", path, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			// Methods count only when their receiver type is exported.
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			report(d.Pos(), kind, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the grouped declaration or on the
					// spec (or a trailing line comment) covers its names.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether a method receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}

// mdLink matches inline markdown links; the path group stops before any
// anchor or title.
var mdLink = regexp.MustCompile(`\]\(([^)\s#]+)[^)]*\)`)

// docFiles lists the documents doccheck reads: README.md and every
// markdown file under docs/.
func docFiles(root string) []string {
	var files []string
	if _, err := os.Stat(filepath.Join(root, "README.md")); err == nil {
		files = append(files, filepath.Join(root, "README.md"))
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	return append(files, docs...)
}

// checkMarkdownLinks verifies every relative link in README.md and every
// markdown file under docs/ points at an existing file.
func checkMarkdownLinks(root string) []string {
	var problems []string
	for _, file := range docFiles(root) {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue // external
				}
				resolved := filepath.Join(filepath.Dir(file), target)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems,
						fmt.Sprintf("%s:%d: broken link %q (no file at %s)", file, i+1, target, resolved))
				}
			}
		}
	}
	return problems
}

// analyzerHeading matches a `## <name>` heading whose name has the shape
// of an analyzer (one lower-case word); prose headings like
// "## Annotation vocabulary" do not match.
var analyzerHeading = regexp.MustCompile(`^## ([a-z][a-z0-9]*)$`)

// checkAnalyzerDocs verifies docs/ANALYSIS.md against the registered
// analyzer suite: every analyzer in analysis.All must have a `## <name>`
// section, and every analyzer-shaped heading must name a registered
// analyzer (a stale section is as misleading as a missing one).
func checkAnalyzerDocs(root string) []string {
	path := filepath.Join(root, "docs", "ANALYSIS.md")
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v (every registered analyzer must be documented there)", path, err)}
	}
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	return analyzerDocProblems(path, string(data), names)
}

// analyzerDocProblems is the testable core of checkAnalyzerDocs: it
// diffs the analyzer-shaped headings of the document against the
// registered names.
func analyzerDocProblems(path, content string, names []string) []string {
	documented := map[string]int{}
	for i, line := range strings.Split(content, "\n") {
		if m := analyzerHeading.FindStringSubmatch(strings.TrimRight(line, " \t")); m != nil {
			documented[m[1]] = i + 1
		}
	}
	var problems []string
	registered := map[string]bool{}
	for _, name := range names {
		registered[name] = true
		if _, ok := documented[name]; !ok {
			problems = append(problems,
				fmt.Sprintf("%s: analyzer %q is registered in the suite but has no \"## %s\" section", path, name, name))
		}
	}
	for name, line := range documented {
		if !registered[name] {
			problems = append(problems,
				fmt.Sprintf("%s:%d: heading \"## %s\" documents an analyzer that is not registered", path, line, name))
		}
	}
	return problems
}

// benchCitation matches a benchmark name as `go test` recognizes one: the
// prefix followed by a character that is not a lower-case letter, so the
// word "Benchmarks" is prose, not a citation.
var benchCitation = regexp.MustCompile(`\bBenchmark[A-Z0-9_][A-Za-z0-9_]*`)

// benchFunc matches a top-level benchmark function declaration.
var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark[A-Z0-9_][A-Za-z0-9_]*)\(`)

// checkBenchmarkCitations verifies every benchmark the documents name
// against the benchmark functions declared in the module's test files: a
// doc that tells the reader to run a deleted benchmark is a broken link.
func checkBenchmarkCitations(root string) []string {
	defined := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("walk: %v", err)}
	}
	var problems []string
	for _, file := range docFiles(root) {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		problems = append(problems, benchCitationProblems(file, string(data), defined)...)
	}
	return problems
}

// benchCitationProblems is the testable core of checkBenchmarkCitations:
// one problem per cited benchmark name that defined does not hold.
func benchCitationProblems(path, content string, defined map[string]bool) []string {
	var problems []string
	for i, line := range strings.Split(content, "\n") {
		for _, name := range benchCitation.FindAllString(line, -1) {
			if !defined[name] {
				problems = append(problems,
					fmt.Sprintf("%s:%d: cites %s, which no _test.go file declares", path, i+1, name))
			}
		}
	}
	return problems
}

// facadeCitation matches a root-package identifier as the documents cite
// it: the package name, a dot and an exported name.
var facadeCitation = regexp.MustCompile(`\bwatchman\.([A-Z][A-Za-z0-9_]*)`)

// checkFacadeCitations verifies every watchman.X the documents cite
// against the exported top-level names of the root package's non-test
// files.
func checkFacadeCitations(root string) []string {
	files, _ := filepath.Glob(filepath.Join(root, "*.go"))
	exported := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return []string{fmt.Sprintf("%s: parse error: %v", path, err)}
		}
		for name, obj := range f.Scope.Objects {
			if obj.Kind != ast.Bad && ast.IsExported(name) {
				exported[name] = true
			}
		}
	}
	var problems []string
	for _, file := range docFiles(root) {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		problems = append(problems, facadeCitationProblems(file, string(data), exported)...)
	}
	return problems
}

// facadeCitationProblems is the testable core of checkFacadeCitations:
// one problem per cited watchman.X that exported does not hold.
func facadeCitationProblems(path, content string, exported map[string]bool) []string {
	var problems []string
	for i, line := range strings.Split(content, "\n") {
		for _, m := range facadeCitation.FindAllStringSubmatch(line, -1) {
			if !exported[m[1]] {
				problems = append(problems,
					fmt.Sprintf("%s:%d: cites watchman.%s, which the root package does not export", path, i+1, m[1]))
			}
		}
	}
	return problems
}
