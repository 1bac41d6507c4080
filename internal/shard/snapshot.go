package shard

// Snapshot persistence for the concurrent layer. Capture is copy-on-read
// and chunked: each shard's entries are deep-copied in bounded slices
// under that shard's mutex only (one shard at a time — traffic on the
// other shards keeps flowing), and the encoding runs outside every lock.
// Restore is the inverse and must happen before serving begins: each
// shard's core cache enforces that it has served nothing yet.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/persist"
)

// snapshotChunkEntries bounds one chunked-export lock slice. At typical
// entry sizes a 512-entry copy is tens of microseconds — foreground
// references wait for at most that, instead of for a full-shard export.
const snapshotChunkEntries = 512

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// StreamSnapshot writes a snapshot of the full cache state to w and
// reports its size, resident count and the longest single lock hold.
// Each shard's state leaves in chunks of at most snapshotChunkEntries
// entries, the shard lock held only per-chunk and released while the
// chunk is encoded. Entries touched between a shard's chunks surface as
// either their pre-export or post-mutation state, and the output is
// byte-identical to persist.Write over the shards' core ExportState
// whenever the cache is quiescent (see docs/PERSISTENCE.md, "Streaming
// capture & consistency"). Shards are visited one at a time, so the
// capture is per-shard consistent, not globally consistent — references
// that land mid-capture appear in some shards and not others, the same
// tolerance Stats() already has.
//
// The returned SnapshotInfo has no Path: that belongs to the
// Snapshotter's file lifecycle.
func (s *Sharded) StreamSnapshot(w io.Writer) (SnapshotInfo, error) {
	// Quiesce both feeds relative to the capture point: events emitted
	// before this call reach the θ shadows and the ghosts before shards
	// are read, so the admission section (θ, scores, the window in
	// progress) and a what-if report taken around a snapshot bracket the
	// same stream prefix the image does.
	if s.tuner != nil {
		s.tuner.Drain()
	}
	if s.whatif != nil {
		s.whatif.Drain()
	}
	start := clock.Now()
	var maxPause time.Duration
	pause := func(t0 time.Time) {
		if d := clock.Since(t0); d > maxPause {
			maxPause = d
		}
	}

	// The meta section streams first but declares the snapshot clock (the
	// max across shards), so sweep the clocks up front. Under live
	// traffic the declared clock may trail a shard's header clock by the
	// references that land between this sweep and that shard's export.
	var declared float64
	for _, sh := range s.shards {
		t0 := clock.Now()
		sh.mu.Lock()
		if c := sh.cache.Clock(); c > declared {
			declared = c
		}
		sh.mu.Unlock()
		pause(t0)
	}

	cw := &countingWriter{w: w}
	sw, err := persist.NewStreamWriter(cw, len(s.shards), declared)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer sw.Close() // releases the pooled encoder on error paths

	resident := 0
	scratch := make([]core.EntryState, 0, snapshotChunkEntries)
	for _, sh := range s.shards {
		t0 := clock.Now()
		sh.mu.Lock()
		cur := sh.cache.ExportBegin()
		sh.mu.Unlock()
		pause(t0)
		if err := sw.BeginShard(cur.Header); err != nil {
			return SnapshotInfo{}, err
		}
		for cur.Remaining() > 0 {
			t0 = clock.Now()
			sh.mu.Lock()
			chunk, _ := sh.cache.ExportChunk(cur, snapshotChunkEntries, scratch[:cap(scratch)])
			sh.mu.Unlock()
			pause(t0)
			for i := range chunk {
				if chunk[i].Resident {
					resident++
				}
			}
			// WriteEntries encodes before returning, so the scratch (and
			// its entries' sub-slices) is free for the next chunk.
			if err := sw.WriteEntries(chunk); err != nil {
				return SnapshotInfo{}, err
			}
			scratch = chunk
		}
		if err := sw.EndShard(); err != nil {
			return SnapshotInfo{}, err
		}
	}
	if s.tuner != nil {
		if err := sw.WriteAdmission(s.tuner.ExportState()); err != nil {
			return SnapshotInfo{}, err
		}
	}
	if err := sw.Close(); err != nil {
		return SnapshotInfo{}, err
	}
	info := SnapshotInfo{
		Bytes:        cw.n,
		Resident:     resident,
		Elapsed:      clock.Since(start),
		MaxLockPause: maxPause,
	}
	if s.reg != nil {
		s.reg.ObserveSnapshot(info.Elapsed.Seconds(), info.Bytes, maxPause.Seconds())
	}
	return info, nil
}

// RestoreReport aggregates the per-shard restore outcomes.
type RestoreReport struct {
	// Resident, Retained, DemotedResident and Dropped sum the per-shard
	// core.RestoreReport counters.
	Resident        int
	Retained        int
	DemotedResident int
	Dropped         int
	// ThetaRestored reports whether an adaptive admission threshold was
	// restored (snapshot carried one and this cache runs a tuner); Theta
	// is the published value when it was.
	ThetaRestored bool
	Theta         float64
}

// Restore reads a snapshot from r and pours it into the cache. The shard
// count must match the snapshot's: entries were partitioned by signature
// when captured, and restoring N shards' state into M≠N shards would
// route queries away from their entries. The cache must not have served
// any traffic yet.
func (s *Sharded) Restore(r io.Reader) (RestoreReport, error) {
	var rep RestoreReport
	snap, err := persist.Read(r)
	if err != nil {
		return rep, err
	}
	if len(snap.Shards) != len(s.shards) {
		return rep, fmt.Errorf("shard: snapshot captured %d shards but this cache has %d; restart with -shards %d (or discard the snapshot)",
			len(snap.Shards), len(s.shards), len(snap.Shards))
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		sr, err := sh.cache.RestoreState(snap.Shards[i])
		sh.mu.Unlock()
		if err != nil {
			return rep, fmt.Errorf("shard %d: %w", i, err)
		}
		rep.Resident += sr.Resident
		rep.Retained += sr.Retained
		rep.DemotedResident += sr.DemotedResident
		rep.Dropped += sr.Dropped
	}
	if snap.Admission != nil && s.tuner != nil {
		if err := s.tuner.RestoreState(snap.Admission); err != nil {
			return rep, err
		}
		rep.ThetaRestored = true
		rep.Theta = s.tuner.Threshold()
	}
	return rep, nil
}

// SnapshotInfo describes one completed snapshot write.
type SnapshotInfo struct {
	// Path is the snapshot file written.
	Path string `json:"path"`
	// Bytes is the encoded size.
	Bytes int64 `json:"bytes"`
	// Resident is the number of resident sets captured.
	Resident int `json:"resident"`
	// Elapsed is the wall time of the capture + write.
	Elapsed time.Duration `json:"-"`
	// MaxLockPause is the longest single shard-lock hold of the capture —
	// the worst stall a foreground reference could have seen.
	MaxLockPause time.Duration `json:"-"`
}

// Snapshotter persists the cache to a file on a schedule and on demand.
// Writes are atomic (temp file + rename), serialized by an internal
// mutex, and never hold shard locks across the file I/O.
type Snapshotter struct {
	s        *Sharded
	path     string
	interval time.Duration

	mu   sync.Mutex // serializes snapshot writes
	stop chan struct{}
	done chan struct{}
	once sync.Once

	// Last-outcome record, so a persistently failing background loop is
	// observable (via Last and the serving layer's /stats) instead of
	// silently leaving an ever-staler file behind. Guarded by its own
	// mutex so readers never block behind an in-progress file write.
	lastMu     sync.Mutex
	lastGood   SnapshotInfo // last successful write
	lastGoodAt time.Time
	lastErr    error // outcome of the most recent attempt, nil on success
}

// NewSnapshotter creates a snapshotter writing to path. A positive
// interval starts a background loop that snapshots every interval;
// interval 0 means on-demand only (Snapshot and the final flush in Close
// still work). Close the snapshotter to stop the loop and flush a final
// snapshot.
func (s *Sharded) NewSnapshotter(path string, interval time.Duration) *Snapshotter {
	sn := &Snapshotter{
		s:        s,
		path:     path,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if interval > 0 {
		go sn.loop()
	} else {
		close(sn.done)
	}
	return sn
}

// Path returns the snapshot file path.
func (sn *Snapshotter) Path() string { return sn.path }

// Last reports snapshot health: the last SUCCESSFUL write (zero before
// one happens) with its completion time — how stale the on-disk file is
// — and the error of the most recent attempt, nil when it succeeded. The
// serving layer surfaces this in /stats so a background loop that keeps
// failing — full disk, permissions — is visible long before the stale
// file is needed. Last never blocks behind an in-progress write.
func (sn *Snapshotter) Last() (good SnapshotInfo, goodAt time.Time, err error) {
	sn.lastMu.Lock()
	defer sn.lastMu.Unlock()
	return sn.lastGood, sn.lastGoodAt, sn.lastErr
}

func (sn *Snapshotter) loop() {
	defer close(sn.done)
	t := time.NewTicker(sn.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// A failed periodic snapshot must not kill the loop: the disk
			// may be transiently full, and the next tick retries. The
			// outcome is recorded either way and surfaced via Last.
			_, _ = sn.Snapshot()
		case <-sn.stop:
			return
		}
	}
}

// Snapshot captures and writes one snapshot now, atomically replacing the
// file at Path. It is safe for concurrent use (writes serialize) and may
// be called from HTTP handlers.
func (sn *Snapshotter) Snapshot() (SnapshotInfo, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.writeAndRecord()
}

// ErrSnapshotInFlight reports that TrySnapshot found another snapshot
// write in progress.
var ErrSnapshotInFlight = errors.New("shard: a snapshot is already in flight")

// TrySnapshot is the non-queueing form of Snapshot for request-scoped
// callers: when another write is in flight it fails immediately with
// ErrSnapshotInFlight instead of queueing on the snapshotter's mutex,
// and a done ctx abandons the wait — the caller gets ctx.Err() while
// the write itself runs to completion in the background and records its
// outcome via Last, so a disconnected client never aborts a half-taken
// snapshot.
func (sn *Snapshotter) TrySnapshot(ctx context.Context) (SnapshotInfo, error) {
	if !sn.mu.TryLock() {
		return SnapshotInfo{}, ErrSnapshotInFlight
	}
	type outcome struct {
		info SnapshotInfo
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer sn.mu.Unlock()
		info, err := sn.writeAndRecord()
		ch <- outcome{info, err}
	}()
	select {
	case o := <-ch:
		return o.info, o.err
	case <-ctx.Done():
		return SnapshotInfo{}, ctx.Err()
	}
}

// writeAndRecord performs one write and publishes its outcome. Called
// with mu held.
func (sn *Snapshotter) writeAndRecord() (SnapshotInfo, error) {
	info, err := sn.write()
	// Publish the outcome while still holding the write mutex, so two
	// attempts cannot record out of order; Last takes only lastMu and
	// never blocks behind the file I/O above.
	sn.lastMu.Lock()
	sn.lastErr = err
	if err == nil {
		sn.lastGood, sn.lastGoodAt = info, clock.Now()
	}
	sn.lastMu.Unlock()
	return info, err
}

// write performs one capture + atomic file replace. Called with mu
// held. The capture streams (StreamSnapshot), so shard locks are held
// only per-chunk and never across the file I/O.
func (sn *Snapshotter) write() (SnapshotInfo, error) {
	start := clock.Now()
	dir := filepath.Dir(sn.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(sn.path)+".tmp*")
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("shard: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	info, err := sn.s.StreamSnapshot(tmp)
	if err != nil {
		tmp.Close()
		return SnapshotInfo{}, fmt.Errorf("shard: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return SnapshotInfo{}, fmt.Errorf("shard: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return SnapshotInfo{}, fmt.Errorf("shard: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), sn.path); err != nil {
		return SnapshotInfo{}, fmt.Errorf("shard: snapshot: %w", err)
	}
	info.Path = sn.path
	info.Elapsed = clock.Since(start)
	return info, nil
}

// Close stops the background loop (if any) and flushes one final
// snapshot — the graceful-shutdown path, so a SIGTERM preserves
// everything learned since the last periodic write. It is idempotent.
func (sn *Snapshotter) Close() (SnapshotInfo, error) {
	sn.once.Do(func() {
		close(sn.stop)
	})
	<-sn.done
	return sn.Snapshot()
}

// RestoreFile restores the cache from the snapshot file at path. A
// missing file is not an error — it is the normal cold start — and is
// reported by ok=false with a zero report.
func (s *Sharded) RestoreFile(path string) (rep RestoreReport, ok bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return RestoreReport{}, false, nil
	}
	if err != nil {
		return RestoreReport{}, false, err
	}
	defer f.Close()
	rep, err = s.Restore(f)
	if err != nil {
		return rep, false, fmt.Errorf("restoring %s: %w", path, err)
	}
	return rep, true, nil
}
