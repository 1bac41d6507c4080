package analysis

// This file is the suite's package loader: a minimal, module-aware
// replacement for golang.org/x/tools/go/packages built on the standard
// library. It discovers the directories of one source tree, parses their
// non-test files, and type-checks them on demand with an importer that
// resolves module-internal paths from the same tree and everything else
// (the standard library) through go/importer's source importer. The
// module carries no third-party dependencies, so those two roots cover
// every import the type checker can encounter.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("repro/internal/core"), or its
	// root-relative path in fixture mode.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// TypesInfo records the type checker's facts about the files.
	TypesInfo *types.Info
}

// Loader loads and type-checks the packages of one source tree.
type Loader struct {
	// Root is the tree's directory: a module root (when Module is set) or
	// an analysistest testdata/src root (when Module is empty, import
	// paths are root-relative as in a GOPATH).
	Root string
	// Module is the tree's module path, prefixed onto directory-relative
	// import paths. Empty selects fixture mode.
	Module string

	fset     *token.FileSet
	pkgs     map[string]*Package
	loading  map[string]bool
	fallback types.Importer
}

// NewLoader returns a loader over the tree rooted at dir. module is the
// tree's module path ("" for analysistest fixture roots).
func NewLoader(dir, module string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:     dir,
		Module:   module,
		fset:     fset,
		pkgs:     map[string]*Package{},
		loading:  map[string]bool{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
}

// LoadModule discovers the module rooted at dir (reading its module path
// from go.mod) and loads every package matching the patterns. Patterns
// follow the go tool's shape: "./..." for the whole tree, "./x/..." for a
// subtree, "./x" for one directory; no pattern means "./...".
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	module, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := NewLoader(dir, module)
	return l.Load(patterns...)
}

// Load discovers the tree's package directories, filters them by the
// patterns and returns the matching packages type-checked, sorted by
// import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rels, err := l.discover()
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, rel := range rels {
		if !matchAny(rel, patterns) {
			continue
		}
		pkg, err := l.loadLocal(l.importPath(rel))
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// importPath maps a root-relative directory to its import path.
func (l *Loader) importPath(rel string) string {
	if rel == "." {
		return l.Module
	}
	if l.Module == "" {
		return rel
	}
	return l.Module + "/" + rel
}

// discover walks the tree and returns every root-relative directory that
// holds at least one non-test Go file. Hidden directories, testdata and
// vendor trees are skipped.
func (l *Loader) discover() ([]string, error) {
	var rels []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		files, err := goFiles(p)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.Root, p)
		if err != nil {
			return err
		}
		rels = append(rels, filepath.ToSlash(rel))
		return nil
	})
	return rels, err
}

// goFiles lists the directory's non-test Go files that the default build
// compiles (build constraints honored), sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// matchAny reports whether the root-relative directory matches any
// pattern.
func matchAny(rel string, patterns []string) bool {
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." || pat == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat {
			return true
		}
	}
	return false
}

// Import implements types.Importer: module-internal paths (and, in
// fixture mode, paths whose directory exists under the root) resolve from
// the tree; everything else falls back to the source importer, which
// covers the standard library.
func (l *Loader) Import(ipath string) (*types.Package, error) {
	if ipath == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.localDir(ipath); ok {
		pkg, err := l.loadLocal(l.importPath(rel))
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", ipath)
		}
		return pkg.Types, nil
	}
	return l.fallback.Import(ipath)
}

// localDir maps an import path to a root-relative directory when the path
// belongs to this tree.
func (l *Loader) localDir(ipath string) (rel string, ok bool) {
	if l.Module != "" {
		if ipath == l.Module {
			return ".", true
		}
		if sub, found := strings.CutPrefix(ipath, l.Module+"/"); found {
			return sub, true
		}
		return "", false
	}
	// Fixture mode: any path with a directory under the root is local.
	if fi, err := os.Stat(filepath.Join(l.Root, filepath.FromSlash(ipath))); err == nil && fi.IsDir() {
		return ipath, true
	}
	return "", false
}

// loadLocal parses and type-checks one tree-local package by import path,
// memoized. A nil result (no error) means the directory has no Go files.
func (l *Loader) loadLocal(ipath string) (*Package, error) {
	if pkg, ok := l.pkgs[ipath]; ok {
		return pkg, nil
	}
	if l.loading[ipath] {
		return nil, fmt.Errorf("import cycle through %s", ipath)
	}
	l.loading[ipath] = true
	defer delete(l.loading, ipath)

	rel := "."
	if l.Module == "" {
		rel = ipath
	} else if ipath != l.Module {
		rel = strings.TrimPrefix(ipath, l.Module+"/")
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	paths, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		l.pkgs[ipath] = nil
		return nil, nil
	}
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(l.fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(ipath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ipath, err)
	}
	pkg := &Package{
		Path:      ipath,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.pkgs[ipath] = pkg
	return pkg, nil
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return path.Clean(strings.TrimSpace(rest)), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
