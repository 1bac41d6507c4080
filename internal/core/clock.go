package core

// This file is the package's designated time-source file: the only place
// in core allowed to read the process clock. Core's cache logic works in
// logical seconds supplied by the caller (trace replay or the shard
// layer's injected time source) — the monotonic clock below exists
// solely for flight-recorder span timing, which measures wall latency
// and is invisible to replay determinism. The timesource analyzer
// (cmd/watchmanlint) enforces that no other file in the package reads
// the clock.
//
//watchman:timesource

import "time"

// spanEpoch anchors the monotonic clock every span timing is read from.
// time.Since on a fixed anchor uses the runtime's monotonic reading, so
// stage durations are immune to wall-clock steps.
var spanEpoch = time.Now()

// monotonicNanos returns nanoseconds elapsed on the monotonic clock since
// process start (strictly: since package initialization).
func monotonicNanos() int64 { return int64(time.Since(spanEpoch)) }
