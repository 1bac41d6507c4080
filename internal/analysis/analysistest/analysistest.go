// Package analysistest runs one analyzer over fixture packages and
// checks its diagnostics against the fixtures' expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// alone (this module carries no external dependencies).
//
// Fixtures live under <dir>/src/<path>/ and are loaded in the loader's
// fixture mode: import paths are root-relative, exactly as in a GOPATH.
// An expected diagnostic is a trailing comment on the offending line:
//
//	t := time.Now() // want `raw time\.Now\(\) outside`
//
// The comment may carry several quoted regexps (backquoted or
// double-quoted) when one line produces several diagnostics. Every
// diagnostic must be claimed by a want on its exact file and line, and
// every want must claim a diagnostic — unexpected and missing findings
// are both test failures, so fixtures pin flagging AND non-flagging
// behavior.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory, the conventional fixture root.
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// want is one expected diagnostic: a regexp that must match a reported
// message on its file and line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture packages under dir/src matching the patterns
// (root-relative import paths, "accounthonesty/..." or "lockencode/a"),
// runs the analyzer over each, and reports every mismatch between the
// diagnostics and the fixtures' want comments. Suppression is applied
// first, so a fixture line under a well-formed //lint:ignore carries no
// want.
func Run(t *testing.T, dir string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	l := analysis.NewLoader(filepath.Join(dir, "src"), "")
	pkgs, err := l.Load(patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages match %q under %s", patterns, dir)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(a, pkg, pkgs)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		wants := collectWants(t, pkg)
		for _, d := range diags {
			if !claim(wants, d.Position, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s", pkg.Path, d)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
			}
		}
	}
}

// claim marks the first unmatched want covering the diagnostic and
// reports whether one was found.
func claim(wants []*want, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every want comment of the package's files.
func collectWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for {
					rest = strings.TrimSpace(rest)
					if rest == "" {
						break
					}
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want expectation %q", pos.Filename, pos.Line, c.Text)
					}
					rest = rest[len(q):]
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, s, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: s})
				}
			}
		}
	}
	return wants
}
