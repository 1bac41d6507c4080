package watchman_test

import (
	"bytes"
	"testing"

	watchman "repro"
)

// TestGoldenTPCDStreamedSnapshot is the facade-level acceptance check for
// the snapshot path: over a golden TPC-D-driven cache (adaptive admission
// included), the chunked streaming capture must restore every resident
// set and the θ into a fresh cache, and the restored cache must
// re-snapshot to the same bytes. Byte equality with the materialized
// per-shard export is pinned in package shard.
func TestGoldenTPCDStreamedSnapshot(t *testing.T) {
	tr, err := watchman.TPCDTrace(0.005, watchman.WorkloadConfig{Queries: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	newCache := func() (*watchman.Sharded, *watchman.AdmissionTuner) {
		tuner, err := watchman.NewAdmissionTuner(watchman.AdmissionConfig{
			Capacity: watchman.CacheBytesForFraction(tr, 0.25), K: 4, Window: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := watchman.NewSharded(watchman.ShardedConfig{
			Shards: 8,
			Cache: watchman.Config{
				Capacity: watchman.CacheBytesForFraction(tr, 0.25),
				K:        4,
				Policy:   watchman.LNCRA,
			},
			Tuner: tuner,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sc, tuner
	}

	sc, tuner := newCache()
	for i := range tr.Records {
		rec := &tr.Records[i]
		req := watchman.Request{
			QueryID:   rec.QueryID,
			Time:      rec.Time,
			Class:     rec.Class,
			Size:      rec.Size,
			Cost:      rec.Cost,
			Relations: rec.Relations,
			Payload:   []byte("rows"),
		}
		if rec.Plan != nil {
			req.Plan = rec.Plan
		}
		sc.Reference(req)
	}
	if _, ok := tuner.TuneOnce(); !ok {
		t.Fatal("tuning round did not score")
	}

	var streamed bytes.Buffer
	info, err := sc.StreamSnapshot(&streamed)
	if err != nil {
		t.Fatal(err)
	}
	if info.Resident != sc.Resident() || info.Bytes != int64(streamed.Len()) {
		t.Fatalf("SnapshotInfo %+v (cache resident %d, %d bytes)", info, sc.Resident(), streamed.Len())
	}

	// The capture restores into a fresh cache...
	dst, _ := newCache()
	rep, err := dst.Restore(bytes.NewReader(streamed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resident != sc.Resident() || !rep.ThetaRestored {
		t.Fatalf("restore report %+v (source resident %d)", rep, sc.Resident())
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// ...which re-snapshots to the same bytes.
	var again bytes.Buffer
	if _, err := dst.StreamSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), streamed.Bytes()) {
		t.Fatal("re-snapshot of the restored cache differs from the original capture")
	}
}
