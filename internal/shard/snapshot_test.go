package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/persist"
)

// drive pushes deterministic traffic through the sharded cache.
func drive(s *Sharded, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.Float64()
		s.Reference(core.Request{
			QueryID:   fmt.Sprintf("query-%d", rng.Intn(n/4+1)),
			Time:      now,
			Class:     rng.Intn(2),
			Size:      rng.Int63n(300) + 1,
			Cost:      float64(rng.Intn(1000)) + 1,
			Relations: []string{fmt.Sprintf("rel%d", rng.Intn(4))},
			Payload:   []byte("rows"),
		})
	}
}

func snapCfg(tuner *admission.Tuner) Config {
	return Config{
		Shards: 8,
		Cache:  core.Config{Capacity: 128 << 10, K: 3, Policy: core.LNCRA},
		Tuner:  tuner,
		Now:    logical(),
	}
}

func newTuner(t *testing.T) *admission.Tuner {
	t.Helper()
	// The window exceeds the traffic the tests drive, so the shard layer
	// never fires an async tuning round: the tests run TuneOnce
	// synchronously and the captures stay deterministic.
	tn, err := admission.New(admission.Config{Capacity: 128 << 10, Window: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestShardedSnapshotRestoreBitIdentical is the acceptance check:
// snapshot then restore of a populated sharded cache reproduces
// bit-identical residency, the exact per-shard Stats partition, and the
// published admission θ.
func TestShardedSnapshotRestoreBitIdentical(t *testing.T) {
	tuner := newTuner(t)
	src := newSharded(t, snapCfg(tuner))
	drive(src, 42, 6000)
	if _, ok := tuner.TuneOnce(); !ok {
		t.Fatal("tuning round did not score")
	}
	theta := tuner.Threshold()

	var buf bytes.Buffer
	if _, err := src.StreamSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Determinism: capturing the same quiesced cache twice yields the
	// same bytes.
	var again bytes.Buffer
	if _, err := src.StreamSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Fatal("two snapshots of a quiesced cache differ")
	}

	restoredTuner := newTuner(t)
	dst := newSharded(t, snapCfg(restoredTuner))
	rep, err := dst.Restore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resident != src.Resident() {
		t.Fatalf("restored %d resident, source has %d", rep.Resident, src.Resident())
	}
	if !rep.ThetaRestored || restoredTuner.Threshold() != theta {
		t.Fatalf("θ: restored=%v got %g want %g", rep.ThetaRestored, restoredTuner.Threshold(), theta)
	}

	// Bit-identical residency and Stats partition, shard by shard.
	srcStats, dstStats := src.ShardStats(), dst.ShardStats()
	for i := range srcStats {
		if srcStats[i] != dstStats[i] {
			t.Fatalf("shard %d stats differ:\n  src %+v\n  dst %+v", i, srcStats[i], dstStats[i])
		}
	}
	for i := range src.shards {
		a := src.shards[i].cache.ExportState()
		b := dst.shards[i].cache.ExportState()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d state differs after restore", i)
		}
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// And the restored cache re-snapshots to the same bytes.
	var rebuf bytes.Buffer
	if _, err := dst.StreamSnapshot(&rebuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, rebuf.Bytes()) {
		t.Fatal("restored cache snapshots to different bytes")
	}
}

// TestRestoreShardCountMismatch: entries were partitioned by signature at
// capture; restoring into a different shard count must fail with a clear
// message, not scatter entries into unreachable shards.
func TestRestoreShardCountMismatch(t *testing.T) {
	src := newSharded(t, Config{Shards: 8, Cache: core.Config{Capacity: 64 << 10, Policy: core.LNCRA}, Now: logical()})
	drive(src, 1, 500)
	var buf bytes.Buffer
	if _, err := src.StreamSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 64 << 10, Policy: core.LNCRA}, Now: logical()})
	if _, err := dst.Restore(&buf); err == nil {
		t.Fatal("shard-count mismatch must fail")
	}
}

// testDeriver is a no-op Deriver+EventSink used to observe restore
// events through the shard wiring.
type testDeriver struct {
	mu       sync.Mutex
	restored int
}

func newTestDeriver() *testDeriver { return &testDeriver{} }

func (d *testDeriver) Derive(core.Request) (core.Derivation, bool) { return core.Derivation{}, false }
func (d *testDeriver) Emit(ev core.Event) {
	if ev.Kind == core.EventRestore {
		d.mu.Lock()
		d.restored++
		d.mu.Unlock()
	}
}

// TestRestoreAnnouncesResidencyToSinks: the per-shard event wiring must
// deliver one EventRestore per restored resident entry to the configured
// deriver sink.
func TestRestoreAnnouncesResidencyToSinks(t *testing.T) {
	src := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 1 << 20, Policy: core.LNCRA}, Now: logical()})
	drive(src, 9, 800)
	var buf bytes.Buffer
	if _, err := src.StreamSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	d := newTestDeriver()
	dst := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 1 << 20, Policy: core.LNCRA}, Deriver: d, Now: logical()})
	rep, err := dst.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	restored := d.restored
	d.mu.Unlock()
	if restored != rep.Resident || restored == 0 {
		t.Fatalf("deriver saw %d restore events, report says %d resident", restored, rep.Resident)
	}
}

// TestSnapshotterFileLifecycle covers the on-demand write, the atomic
// replace, RestoreFile, and the final flush in Close.
func TestSnapshotterFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.wmsnap")

	src := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 64 << 10, Policy: core.LNCRA}, Now: logical()})
	drive(src, 3, 1000)

	sn := src.NewSnapshotter(path, 0)
	info, err := sn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != path || info.Resident != src.Resident() || info.Bytes <= 0 {
		t.Fatalf("info = %+v", info)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != info.Bytes {
		t.Fatalf("file is %d bytes, info says %d", fi.Size(), info.Bytes)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want just the snapshot", len(entries))
	}

	// More traffic, then Close must flush the newer state.
	drive(src, 4, 500)
	info2, err := sn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info2.Resident != src.Resident() {
		t.Fatalf("final flush captured %d resident, cache has %d", info2.Resident, src.Resident())
	}

	dst := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 64 << 10, Policy: core.LNCRA}, Now: logical()})
	rep, ok, err := dst.RestoreFile(path)
	if err != nil || !ok {
		t.Fatalf("RestoreFile: ok=%v err=%v", ok, err)
	}
	if rep.Resident != src.Resident() {
		t.Fatalf("restored %d, want %d", rep.Resident, src.Resident())
	}

	// A missing file is a cold start, not an error.
	cold := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 64 << 10, Policy: core.LNCRA}, Now: logical()})
	if _, ok, err := cold.RestoreFile(filepath.Join(dir, "absent")); ok || err != nil {
		t.Fatalf("missing file: ok=%v err=%v", ok, err)
	}
}

// TestSnapshotterLastSurvivesFailure: a failed attempt must record its
// error WITHOUT clobbering the last successful write's info — the
// operator needs both "it is failing now" and "this is how stale the
// good file is".
func TestSnapshotterLastSurvivesFailure(t *testing.T) {
	dir := t.TempDir()
	src := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 64 << 10, Policy: core.LNCRA}, Now: logical()})
	drive(src, 8, 300)

	sn := src.NewSnapshotter(filepath.Join(dir, "ok.wmsnap"), 0)
	want, err := sn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Break the write path by pointing a second snapshotter into a
	// directory that does not exist.
	bad := src.NewSnapshotter(filepath.Join(dir, "missing", "x.wmsnap"), 0)
	if _, err := bad.Snapshot(); err == nil {
		t.Fatal("snapshot into a missing directory must fail")
	}
	if _, _, lastErr := bad.Last(); lastErr == nil {
		t.Fatal("failed attempt must be recorded")
	}

	// The good snapshotter's record is independent and intact; a failure
	// on IT must also preserve the last good info.
	good, goodAt, lastErr := sn.Last()
	if lastErr != nil || goodAt.IsZero() || good != want {
		t.Fatalf("good record disturbed: %+v at %v err %v", good, goodAt, lastErr)
	}
	sn.path = filepath.Join(dir, "missing", "y.wmsnap")
	if _, err := sn.Snapshot(); err == nil {
		t.Fatal("redirected snapshot must fail")
	}
	good2, goodAt2, lastErr2 := sn.Last()
	if lastErr2 == nil {
		t.Fatal("failure must surface in Last")
	}
	if good2 != want || !goodAt2.Equal(goodAt) {
		t.Fatalf("failure clobbered the last good write: %+v at %v", good2, goodAt2)
	}
}

// TestSnapshotterBackgroundLoop: a short interval must produce a file
// without any on-demand call, and Close must terminate the loop.
func TestSnapshotterBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bg.wmsnap")
	src := newSharded(t, Config{Shards: 4, Cache: core.Config{Capacity: 64 << 10, Policy: core.LNCRA}, Now: logical()})
	drive(src, 5, 200)
	sn := src.NewSnapshotter(path, 10*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := sn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotUnderConcurrentTraffic: exporting while references and
// invalidations are in flight must produce a decodable snapshot and
// leave the cache consistent (run with -race).
func TestSnapshotUnderConcurrentTraffic(t *testing.T) {
	src := newSharded(t, Config{Shards: 8, Cache: core.Config{Capacity: 256 << 10, Policy: core.LNCRA}, Now: logical()})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				src.Reference(core.Request{
					QueryID: fmt.Sprintf("q%d", rng.Intn(500)),
					Size:    rng.Int63n(200) + 1, Cost: float64(rng.Intn(100)) + 1,
					Relations: []string{fmt.Sprintf("rel%d", rng.Intn(3))},
				})
				if rng.Intn(100) == 0 {
					src.Invalidate(fmt.Sprintf("rel%d", rng.Intn(3)))
				}
			}
		}(int64(w))
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if _, err := src.StreamSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := persist.Read(&buf); err != nil {
			t.Fatalf("snapshot %d undecodable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := src.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
