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

// TestRejectFlags drives each of the CLI's five flag-conflict rules
// through its command and pins the error text byte for byte. Every case
// fails before any trace is read or any listener opens.
func TestRejectFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
		want string
	}{
		{"serve", cmdServe,
			[]string{"-tune-window", "100", "-flight-slow", "1s", "-whatif-sample", "4", "-snapshot-interval", "5s", "-addr", "127.0.0.1:0"},
			"serve: -flight-slow (needs -debug), -snapshot-interval (needs -snapshot-path), -tune-window (needs -adaptive), -whatif-sample (needs -whatif)"},
		{"loadgen -addr", cmdLoadgen,
			[]string{"-i", "unread.trace", "-addr", "http://127.0.0.1:1", "-shards", "4", "-k", "2"},
			"loadgen: -k, -shards configure the in-process cache and have no effect with -addr (the server was configured at startup)"},
		{"compare -restart", cmdCompare,
			[]string{"-restart", "-window", "100", "-policies", "lru"},
			"compare: -policies, -window has no effect with -restart (the experiment always replays lnc-ra)"},
		{"compare without -whatif", cmdCompare,
			[]string{"-whatif-sample", "4"},
			"compare: -whatif-sample (needs -whatif)"},
		{"compare -whatif", cmdCompare,
			[]string{"-whatif", "-explain", "-policies", "lru"},
			"compare: -explain, -policies has no effect with -whatif (the ghost matrix runs its own policy grid)"},
	} {
		err := tc.run(tc.args)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v\nwant %s", tc.name, err, tc.want)
		}
	}
}
