package main

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestAnalyzerDocProblems pins the ANALYSIS.md ↔ registry diff in both
// directions: a registered analyzer without a section and a section
// without a registered analyzer are each one problem, and prose headings
// never count as analyzer sections.
func TestAnalyzerDocProblems(t *testing.T) {
	names := []string{"accounthonesty", "timesource"}

	complete := "# Static analysis\n\n## Annotation vocabulary\n\nprose\n\n" +
		"## accounthonesty\n\ntext\n\n## timesource\n\ntext\n"
	if got := analyzerDocProblems("docs/ANALYSIS.md", complete, names); len(got) != 0 {
		t.Fatalf("complete doc must pass, got %v", got)
	}

	missing := "## accounthonesty\n"
	got := analyzerDocProblems("docs/ANALYSIS.md", missing, names)
	if len(got) != 1 || !strings.Contains(got[0], `"## timesource"`) {
		t.Fatalf("missing section must be exactly one problem naming it, got %v", got)
	}

	stale := complete + "\n## lockencode\n\nghost of a removed analyzer\n"
	got = analyzerDocProblems("docs/ANALYSIS.md", stale, names)
	if len(got) != 1 || !strings.Contains(got[0], "not registered") {
		t.Fatalf("stale section must be exactly one problem, got %v", got)
	}

	// A heading with prose shape must not be mistaken for an analyzer.
	prose := complete + "\n## Adding an analyzer\n"
	if got := analyzerDocProblems("docs/ANALYSIS.md", prose, names); len(got) != 0 {
		t.Fatalf("prose headings must not count, got %v", got)
	}
}

// TestAnalyzerDocsAgainstRepo runs the real check against the real
// document from the module root, so the test fails the moment an
// analyzer is added without documentation.
func TestAnalyzerDocsAgainstRepo(t *testing.T) {
	if got := checkAnalyzerDocs("../.."); len(got) != 0 {
		t.Fatalf("docs/ANALYSIS.md out of sync with analysis.All(): %v", got)
	}
	if len(analysis.All()) == 0 {
		t.Fatal("registry is empty; the check would be vacuous")
	}
}

// TestBenchCitationProblems pins the benchmark-citation rule: a declared
// benchmark (with or without a sub-benchmark suffix) passes, a stale name
// is one problem naming its line, and the prose word "Benchmarks" is not
// a citation.
func TestBenchCitationProblems(t *testing.T) {
	defined := map[string]bool{"BenchmarkCanonical": true}
	ok := "## Benchmarks\n\n`BenchmarkCanonical` and `BenchmarkCanonical-2` are fine.\n"
	if got := benchCitationProblems("README.md", ok, defined); len(got) != 0 {
		t.Fatalf("declared benchmarks and prose must pass, got %v", got)
	}
	stale := ok + "Run `BenchmarkShardedReference/shards=16`.\n"
	got := benchCitationProblems("README.md", stale, defined)
	if len(got) != 1 || !strings.Contains(got[0], "README.md:4:") || !strings.Contains(got[0], "BenchmarkShardedReference,") {
		t.Fatalf("stale citation must be exactly one problem naming its line, got %v", got)
	}
}

// TestBenchCitationsAgainstRepo runs the real check over the real README
// and docs, so citing a benchmark that does not exist fails tier-1 too.
func TestBenchCitationsAgainstRepo(t *testing.T) {
	if got := checkBenchmarkCitations("../.."); len(got) != 0 {
		t.Fatalf("docs cite benchmarks that do not exist: %v", got)
	}
}

// TestFacadeCitationProblems pins the facade-citation rule: an exported
// name passes, a name the root package does not export is one problem
// naming its line, the file name watchman.go is not a citation, and a
// watchman.X.Method chain is checked by X alone.
func TestFacadeCitationProblems(t *testing.T) {
	exported := map[string]bool{"New": true, "Sharded": true}
	ok := "See `watchman.go`; call `watchman.New` and `watchman.Sharded.Load`.\n"
	if got := facadeCitationProblems("docs/X.md", ok, exported); len(got) != 0 {
		t.Fatalf("exported names must pass, got %v", got)
	}
	stale := ok + "reg := watchman.NewTelemetryRegistry()\n"
	got := facadeCitationProblems("docs/X.md", stale, exported)
	if len(got) != 1 || !strings.Contains(got[0], "docs/X.md:2:") || !strings.Contains(got[0], "watchman.NewTelemetryRegistry,") {
		t.Fatalf("missing name must be exactly one problem naming its line, got %v", got)
	}
}

// TestFacadeCitationsAgainstRepo runs the real check over the real README
// and docs against the real root package.
func TestFacadeCitationsAgainstRepo(t *testing.T) {
	if got := checkFacadeCitations("../.."); len(got) != 0 {
		t.Fatalf("docs cite root-package names that do not exist: %v", got)
	}
}
