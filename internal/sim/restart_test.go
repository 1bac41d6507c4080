package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestReplayRestartWarmMatchesUninterrupted is the ISSUE acceptance
// criterion: on a split TPC-D trace, the snapshot+restore run's
// second-half CSR is within 0.01 of the uninterrupted run and strictly
// beats the cold restart.
func TestReplayRestartWarmMatchesUninterrupted(t *testing.T) {
	_, tr, err := workload.StandardTPCD(0, workload.Config{Queries: 6000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	capacity := CacheBytesForFraction(tr, 1)
	res, err := ReplayRestart(tr, core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	warm, cold, full := res.Warm.CostSavingsRatio(), res.Cold.CostSavingsRatio(), res.Uninterrupted.CostSavingsRatio()
	t.Logf("second-half CSR: uninterrupted=%.4f warm=%.4f cold=%.4f (snapshot %d bytes, %d resident)",
		full, warm, cold, res.SnapshotBytes, res.SnapshotResident)
	if math.Abs(warm-full) > 0.01 {
		t.Fatalf("warm CSR %.4f deviates from uninterrupted %.4f by more than 0.01", warm, full)
	}
	if warm <= cold {
		t.Fatalf("warm CSR %.4f does not beat cold restart %.4f", warm, cold)
	}
	if res.RestoredResident != res.SnapshotResident {
		t.Fatalf("restored %d of %d resident sets", res.RestoredResident, res.SnapshotResident)
	}
}

// TestReplayRestartExactWithScanEvictor pins the stronger property the
// codec actually delivers with the deterministic evictor: the warm run is
// not merely close — it is bit-identical to the uninterrupted
// continuation. The warm run is a one-shard Sharded and the uninterrupted
// one a serial core.Cache, so this also pins that one shard equals the
// core on this trace.
func TestReplayRestartExactWithScanEvictor(t *testing.T) {
	_, tr, err := workload.StandardSetQuery(0, workload.Config{Queries: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	capacity := CacheBytesForFraction(tr, 2)
	res, err := ReplayRestart(tr, core.Config{Capacity: capacity, K: 3, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm != res.Uninterrupted {
		t.Fatalf("warm second half diverged from uninterrupted:\n  warm %+v\n  full %+v", res.Warm, res.Uninterrupted)
	}
}

func TestReplayRestartTinyTrace(t *testing.T) {
	_, tr, err := workload.StandardTPCD(0, workload.Config{Queries: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayRestart(tr, core.Config{Capacity: 1 << 20, Policy: core.LNCRA}); err != nil {
		t.Fatal(err)
	}
	tr.Records = tr.Records[:1]
	if _, err := ReplayRestart(tr, core.Config{Capacity: 1 << 20, Policy: core.LNCRA}); err == nil {
		t.Fatal("single-record trace must be rejected")
	}
}
