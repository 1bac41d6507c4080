package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/telemetry"
)

// exportState materializes the whole cache as one persist.Snapshot from
// each shard's core.ExportState and the tuner's state: the oracle the
// streaming capture must match on a quiesced cache.
func exportState(s *Sharded) *persist.Snapshot {
	snap := &persist.Snapshot{Shards: make([]*core.CacheState, len(s.shards))}
	for i, sh := range s.shards {
		sh.mu.Lock()
		snap.Shards[i] = sh.cache.ExportState()
		sh.mu.Unlock()
		snap.Clock = max(snap.Clock, snap.Shards[i].Clock)
	}
	if s.tuner != nil {
		snap.Admission = s.tuner.ExportState()
	}
	return snap
}

// writeState encodes a materialized snapshot whole shard by whole shard.
func writeState(w io.Writer, snap *persist.Snapshot) error {
	sw, err := persist.NewStreamWriter(w, len(snap.Shards), snap.Clock)
	if err != nil {
		return err
	}
	for _, sh := range snap.Shards {
		if err := sw.BeginShard(sh); err != nil {
			return err
		}
		if err := sw.WriteEntries(sh.Entries); err != nil {
			return err
		}
		if err := sw.EndShard(); err != nil {
			return err
		}
	}
	if snap.Admission != nil {
		if err := sw.WriteAdmission(snap.Admission); err != nil {
			return err
		}
	}
	return sw.Close()
}

// TestStreamSnapshotMatchesWrite is the byte-equivalence acceptance check
// for the streaming path: on a quiesced cache, StreamSnapshot must emit
// exactly the bytes of the materialize-then-encode path (the per-shard
// core.ExportState encoded whole), with the admission section present.
func TestStreamSnapshotMatchesWrite(t *testing.T) {
	t.Run("locked", func(t *testing.T) {
		tuner := newTuner(t, 1000)
		s := newSharded(t, snapCfg(tuner))
		drive(s, 7, 5000)
		tuner.Drain()
		if len(tuner.Rounds()) == 0 {
			t.Fatal("5000 references closed no tuning round")
		}

		var want bytes.Buffer
		if err := writeState(&want, exportState(s)); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		info, err := s.StreamSnapshot(&got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("streamed snapshot differs from the encoded ExportState: %d vs %d bytes",
				got.Len(), want.Len())
		}
		if info.Bytes != int64(got.Len()) {
			t.Errorf("info.Bytes = %d, want %d", info.Bytes, got.Len())
		}
		if info.Resident != s.Resident() {
			t.Errorf("info.Resident = %d, want %d", info.Resident, s.Resident())
		}
		if info.MaxLockPause <= 0 {
			t.Error("MaxLockPause not recorded")
		}
		if info.MaxLockPause > info.Elapsed {
			t.Errorf("MaxLockPause %v exceeds total Elapsed %v", info.MaxLockPause, info.Elapsed)
		}
	})
}

// TestStreamSnapshotTelemetry: a capture through a registry-wired cache
// must publish the snapshot metrics (duration histogram, bytes and max
// lock pause gauges) in both Snapshot() and the Prometheus exposition.
func TestStreamSnapshotTelemetry(t *testing.T) {
	cfg := snapCfg(nil)
	cfg.Registry = telemetry.NewRegistry()
	s := newSharded(t, cfg)
	drive(s, 11, 1000)

	var buf bytes.Buffer
	info, err := s.StreamSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Registry().Snapshot()
	if snap.SnapshotLatency == nil || snap.SnapshotLatency.Count != 1 {
		t.Fatalf("snapshot latency histogram not observed: %+v", snap.SnapshotLatency)
	}
	if snap.SnapshotBytes != info.Bytes {
		t.Errorf("SnapshotBytes = %d, want %d", snap.SnapshotBytes, info.Bytes)
	}
	if snap.SnapshotMaxLockPauseSeconds <= 0 {
		t.Error("SnapshotMaxLockPauseSeconds not recorded")
	}

	var prom strings.Builder
	if err := s.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"watchman_snapshot_duration_seconds_count 1",
		"watchman_snapshot_bytes ",
		"watchman_snapshot_max_lock_pause_seconds ",
	} {
		if !strings.Contains(prom.String(), family) {
			t.Errorf("exposition missing %q", family)
		}
	}
}

// TestSnapshotHammer is the -race battery for the streaming capture:
// snapshots taken repeatedly under concurrent Reference + Invalidate
// traffic must each decode and restore into a cache that passes
// CheckInvariants — and whose relation index is consistent enough to
// serve a coherence event correctly afterwards.
func TestSnapshotHammer(t *testing.T) {
	t.Run("locked", func(t *testing.T) {
		// A small admission window: the spinning writers below miss at a
		// high rate, and every capture exports the tuner's whole sample
		// window — the test exercises concurrency, not encode volume.
		tuner, err := admission.New(admission.Config{Capacity: 128 << 10, Window: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		s := newSharded(t, snapCfg(tuner))
		drive(s, 3, 2000) // pre-populate so the first captures are not empty

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				now := 1e6 // past the pre-populated clock
				for i := 0; !stop.Load(); i++ {
					now += rng.Float64()
					s.Reference(core.Request{
						QueryID:   fmt.Sprintf("query-%d", rng.Intn(600)),
						Time:      now,
						Class:     rng.Intn(2),
						Size:      rng.Int63n(300) + 1,
						Cost:      float64(rng.Intn(1000)) + 1,
						Relations: []string{fmt.Sprintf("rel%d", rng.Intn(4))},
						Payload:   []byte("rows"),
					})
					if i%512 == 0 {
						s.Invalidate(fmt.Sprintf("rel%d", rng.Intn(4)))
					}
				}
			}(int64(w + 1))
		}

		var captures [][]byte
		for i := 0; i < 5; i++ {
			var buf bytes.Buffer
			if _, err := s.StreamSnapshot(&buf); err != nil {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("capture %d under load: %v", i, err)
			}
			captures = append(captures, buf.Bytes())
		}
		stop.Store(true)
		wg.Wait()

		for i, raw := range captures {
			restoredTuner := newTuner(t, 1<<12)
			dst := newSharded(t, snapCfg(restoredTuner))
			if _, err := dst.Restore(bytes.NewReader(raw)); err != nil {
				t.Fatalf("capture %d does not restore: %v", i, err)
			}
			if err := dst.CheckInvariants(); err != nil {
				t.Fatalf("capture %d: restored cache invariants: %v", i, err)
			}
			// Relation-index consistency: a coherence event on the
			// restored cache must drop every entry reading the relation
			// and leave the index coherent.
			dst.Invalidate("rel1")
			if err := dst.CheckInvariants(); err != nil {
				t.Fatalf("capture %d: invariants after Invalidate on restored cache: %v", i, err)
			}
		}
	})
}

// TestTrySnapshotInFlight: a second request-scoped snapshot attempt while
// one is in flight must fail immediately with ErrSnapshotInFlight rather
// than queue, and succeed once the writer is free.
func TestTrySnapshotInFlight(t *testing.T) {
	s := newSharded(t, snapCfg(nil))
	drive(s, 5, 500)
	path := filepath.Join(t.TempDir(), "snap.wmsnap")
	sn := s.NewSnapshotter(path, 0)
	defer sn.Close()

	sn.mu.Lock() // simulate an in-flight write deterministically
	if _, err := sn.TrySnapshot(context.Background()); !errors.Is(err, ErrSnapshotInFlight) {
		t.Fatalf("TrySnapshot during a write: err = %v, want ErrSnapshotInFlight", err)
	}
	sn.mu.Unlock()

	info, err := sn.TrySnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != path {
		t.Errorf("info.Path = %q, want %q", info.Path, path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing after TrySnapshot: %v", err)
	}
}

// TestTrySnapshotAbandonedContext: a caller whose context dies gets
// ctx.Err() back, but the write itself must run to completion in the
// background and record its outcome — a disconnected HTTP client must
// never abort a half-taken snapshot.
func TestTrySnapshotAbandonedContext(t *testing.T) {
	s := newSharded(t, snapCfg(nil))
	drive(s, 5, 500)
	path := filepath.Join(t.TempDir(), "snap.wmsnap")
	sn := s.NewSnapshotter(path, 0)
	defer sn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sn.TrySnapshot(ctx); err != nil && !errors.Is(err, context.Canceled) {
		// The write can beat the canceled-context branch of the select on a
		// fast machine; both outcomes are legal, other errors are not.
		t.Fatalf("TrySnapshot with dead ctx: err = %v, want context.Canceled or nil", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		good, goodAt, err := sn.Last()
		if err == nil && !goodAt.IsZero() {
			if good.Path != path {
				t.Errorf("background write recorded path %q, want %q", good.Path, path)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background write never recorded an outcome: good=%+v err=%v", good, err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing after abandoned TrySnapshot: %v", err)
	}
}
