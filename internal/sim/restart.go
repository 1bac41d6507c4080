package sim

// The warm-vs-cold restart experiment: how much of the paper's cost
// savings does snapshot persistence actually preserve across a process
// restart? The trace is split in half; the first half warms a cache,
// whose state then makes a full round trip through the snapshot file
// format (stream → decode → restore into a fresh cache) before the
// second half replays. The comparison points are the uninterrupted run
// (no restart — the upper bound) and a cold restart (all learned state
// discarded — what a restart costs without persistence).

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/trace"
)

// RestartResult reports the warm-vs-cold restart experiment. The three
// Stats cover ONLY the second half of the trace (post-restart traffic):
// for the uninterrupted run they are the end-of-trace counters minus the
// midpoint checkpoint, for the restarted runs the final counters minus
// what each cache started the second half with.
type RestartResult struct {
	// Split is the record index at which the trace was cut.
	Split int
	// Uninterrupted is the second-half accounting of the run that never
	// restarted.
	Uninterrupted core.Stats
	// Warm is the second-half accounting after a snapshot + restore
	// restart.
	Warm core.Stats
	// Cold is the second-half accounting of a fresh cache (restart with
	// no persistence).
	Cold core.Stats
	// SnapshotBytes is the encoded snapshot size; SnapshotResident the
	// resident sets it captured.
	SnapshotBytes    int
	SnapshotResident int
	// RestoredResident is the resident count after restore (equals
	// SnapshotResident when the restore configuration matches).
	RestoredResident int
}

// secondHalf returns the counters accrued after the checkpoint.
func secondHalf(end, checkpoint core.Stats) core.Stats {
	end.Sub(checkpoint)
	return end
}

// ReplayRestart runs the restart experiment on the trace with the given
// cache configuration: replay the first half, snapshot, restore into a
// fresh cache, replay the rest, and compare the second-half accounting
// against the uninterrupted and cold-restart runs. The warm run goes
// through the daemon's own snapshot path — a one-shard shard.Sharded
// captured with StreamSnapshot and reloaded with Restore — so the
// experiment measures exactly what `watchman serve` persists. The trace
// must hold at least two records.
func ReplayRestart(tr *trace.Trace, cfg core.Config) (RestartResult, error) {
	n := tr.Len()
	if n < 2 {
		return RestartResult{}, fmt.Errorf("sim: restart experiment needs at least 2 records, trace %q has %d", tr.Name, n)
	}
	split := n / 2
	first, second := tr.Records[:split], tr.Records[split:]
	res := RestartResult{Split: split}

	// Uninterrupted run, checkpointed at the split.
	full, err := core.New(cfg)
	if err != nil {
		return res, err
	}
	replay(full, first)
	checkpoint := full.Stats()
	replay(full, second)
	res.Uninterrupted = secondHalf(full.Stats(), checkpoint)

	// Warm restart: first half, snapshot round trip, second half. One
	// shard is the serial cache behind a lock; the zero clock keeps a
	// record at time 0 at time 0 instead of stamping it with wall time.
	scfg := shard.Config{Shards: 1, Cache: cfg, Now: func() float64 { return 0 }}
	warmSrc, err := shard.New(scfg)
	if err != nil {
		return res, err
	}
	for i := range first {
		warmSrc.Reference(Request(&first[i]))
	}
	var buf bytes.Buffer
	info, err := warmSrc.StreamSnapshot(&buf)
	if err != nil {
		return res, fmt.Errorf("sim: restart snapshot: %w", err)
	}
	res.SnapshotBytes = buf.Len()
	res.SnapshotResident = info.Resident
	warm, err := shard.New(scfg)
	if err != nil {
		return res, err
	}
	if _, err := warm.Restore(&buf); err != nil {
		return res, fmt.Errorf("sim: restart restore: %w", err)
	}
	res.RestoredResident = warm.Resident()
	restoredAt := warm.Stats().Stats
	for i := range second {
		warm.Reference(Request(&second[i]))
	}
	res.Warm = secondHalf(warm.Stats().Stats, restoredAt)

	// Cold restart: the second half against a fresh cache.
	cold, err := core.New(cfg)
	if err != nil {
		return res, err
	}
	replay(cold, second)
	res.Cold = cold.Stats()

	return res, nil
}
