package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateTraceBenchmarks(t *testing.T) {
	for _, b := range []string{"tpcd", "setquery", "multiclass"} {
		tr, err := generateTrace(b, 200, 1, 0.005)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if tr.Len() != 200 {
			t.Fatalf("%s: %d records", b, tr.Len())
		}
	}
	if _, err := generateTrace("nope", 10, 1, 0); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestTraceFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"bin", "csv"} {
		path := filepath.Join(dir, "t."+format)
		if err := cmdTrace([]string{"-benchmark", "tpcd", "-queries", "150", "-seed", "2", "-scale", "0.005", "-o", path, "-format", format}); err != nil {
			t.Fatalf("cmdTrace(%s): %v", format, err)
		}
		tr, err := loadTrace(path)
		if err != nil {
			t.Fatalf("loadTrace(%s): %v", format, err)
		}
		if tr.Len() != 150 {
			t.Fatalf("%s: %d records", format, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace(path); err == nil {
		t.Fatal("garbage file must fail to load")
	}
}

func TestCmdTraceRequiresOutput(t *testing.T) {
	if err := cmdTrace([]string{"-benchmark", "tpcd"}); err == nil {
		t.Fatal("missing -o must error")
	}
}
