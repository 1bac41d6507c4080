package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// The fixture suites: each analyzer's testdata pins flagging and
// non-flagging behavior, including the regression shapes of the
// violations this suite originally surfaced in the tree (the PR 3
// uncharged bypass, the core span clock's raw time.Now).

func TestAccountHonesty(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.AccountHonesty, "accounthonesty/...")
}

func TestLockEncode(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.LockEncode, "lockencode/...")
}

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.HotPathAlloc, "hotpathalloc/...")
}

func TestTimeSource(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.TimeSource, "timesource/...")
}

func TestEventExhaustive(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.EventExhaustive, "eventexhaustive/...")
}

func TestUnreferenced(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.Unreferenced, "unreferenced/...")
}

// TestRepositoryClean runs the whole suite over the module itself: the
// tree must stay lint-clean, so `go test ./...` is a hard gate even
// where CI does not invoke cmd/watchmanlint directly.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := analysis.LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from the module root")
	}
	diags, err := analysis.RunAll(pkgs, pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestAllUniqueAndDocumentedNames pins the registration point: analyzer
// names are the vocabulary of //lint:ignore directives and the
// docs/ANALYSIS.md headings, so they must be non-empty, lower-case and
// unique.
func TestAllUniqueAndDocumentedNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.All() {
		if a.Name == "" || a.Name != strings.ToLower(a.Name) {
			t.Errorf("analyzer name %q must be non-empty lower-case", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
	if len(seen) != 6 {
		t.Errorf("expected 6 registered analyzers, got %d", len(seen))
	}
}
