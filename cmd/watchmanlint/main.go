// Command watchmanlint runs the repository's static-analysis suite — the
// custom analyzers in internal/analysis that mechanize the codebase's
// concurrency, accounting and hot-path contracts — over a package
// pattern and fails when any invariant is violated. It is a hard CI
// gate, not an advisory: the lint job runs exactly this binary.
//
// Usage:
//
//	go run ./cmd/watchmanlint ./...
//	go run ./cmd/watchmanlint -json ./internal/shard
//	go run ./cmd/watchmanlint -list
//
// Patterns follow the go tool's shape ("./...", "./internal/...", one
// directory) and choose whose findings are reported; no pattern means
// the whole module, which is always what is analyzed. -json emits one JSON
// array of findings for CI annotation tooling; -list prints the
// registered analyzers and their one-paragraph docs. Suppressions use
// `//lint:ignore <analyzer> <justification>` on the offending line or
// the line above; the justification is mandatory. Exit status: 0 clean,
// 1 findings, 2 usage or load errors.
//
// The analyzers, their invariants and the annotation vocabulary are
// documented in docs/ANALYSIS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (for CI annotation)")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	dir := flag.String("C", ".", "module root `directory` to analyze")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
		}
		return
	}

	// The whole module is loaded, whatever the patterns select:
	// unreferenced needs every caller in view.
	module, err := analysis.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "watchmanlint:", err)
		os.Exit(2)
	}
	pkgs := analysis.Select(module, *dir, flag.Args()...)
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "watchmanlint: no packages matched")
		os.Exit(2)
	}
	diags, err := analysis.RunAll(pkgs, module)
	if err != nil {
		fmt.Fprintln(os.Stderr, "watchmanlint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "watchmanlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		fmt.Fprintf(os.Stderr, "watchmanlint: %d package(s), %d finding(s)\n", len(pkgs), len(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// jsonFinding is the -json wire form of one diagnostic: flat fields so CI
// annotators need no nested unpacking.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// writeJSON renders the findings as one indented JSON array ([] when
// clean, so consumers can always parse the output).
func writeJSON(w *os.File, diags []analysis.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			Analyzer: d.Analyzer,
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
