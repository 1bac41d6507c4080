package main

import (
	"flag"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTestTrace generates a small TPC-D trace file for loadgen tests.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := cmdTrace([]string{"-benchmark", "tpcd", "-queries", "400", "-seed", "3", "-scale", "0.005", "-o", path}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestShardedFlagsBuild(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := addShardedFlags(fs)
	if err := fs.Parse([]string{"-policy", "lnc-ra", "-shards", "8", "-k", "2"}); err != nil {
		t.Fatal(err)
	}
	sc, err := sf.build(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumShards() != 8 {
		t.Errorf("shards = %d", sc.NumShards())
	}

	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	sf = addShardedFlags(fs)
	if err := fs.Parse([]string{"-policy", "bogus"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sf.build(1<<20, nil); err == nil {
		t.Error("bogus policy must error")
	}
}

func TestLoadgenInProcess(t *testing.T) {
	path := writeTestTrace(t)
	if err := cmdLoadgen([]string{"-i", path, "-concurrency", "8", "-shards", "4", "-compare-serial"}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadgenAgainstLiveServer(t *testing.T) {
	path := writeTestTrace(t)
	sc, err := shard.New(shard.Config{
		Shards: 4,
		Cache:  core.Config{Capacity: 1 << 20, K: 4, Policy: core.LNCRA},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sc).Handler())
	defer ts.Close()

	if err := cmdLoadgen([]string{"-i", path, "-concurrency", "8", "-addr", ts.URL}); err != nil {
		t.Fatal(err)
	}
	tr, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.References != int64(tr.Len()) {
		t.Errorf("server saw %d references, want %d", st.References, tr.Len())
	}
	if err := sc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadgenFlagsValidation(t *testing.T) {
	if err := cmdLoadgen([]string{"-concurrency", "4"}); err == nil {
		t.Error("missing -i must error")
	}
	path := writeTestTrace(t)
	if err := cmdLoadgen([]string{"-i", path, "-concurrency", "0"}); err == nil {
		t.Error("zero concurrency must error")
	}
	if err := cmdLoadgen([]string{"-i", path, "-addr", "http://localhost:1", "-compare-serial"}); err == nil {
		t.Error("-compare-serial with -addr must error")
	}
}

// TestReplayConcurrentCoversTrace checks the shared-cursor replay visits
// every record exactly once.
func TestReplayConcurrentCoversTrace(t *testing.T) {
	tr, err := func() (*trace.Trace, error) {
		_, tr, err := workload.StandardTPCD(0.005, workload.Config{Queries: 300, Seed: 7})
		return tr, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int32, tr.Len())
	_, _, _, err = replayConcurrent(tr, 16, func(rec *trace.Record) (bool, error) {
		atomic.AddInt32(&seen[rec.Seq], 1)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("record %d replayed %d times", i, n)
		}
	}
}
