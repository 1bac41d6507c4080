// Package clock is the module's one time source: outside bench/clock.go,
// the only file that reads the process clock. The cache works in logical
// seconds supplied by its caller — a trace replay's timestamps, or Wall
// below, the injectable time source the concurrent front installs so that
// live traffic and replayed traces share one λ estimator. Every other
// reading here is a measurement of wall latency: flight-recorder span
// stages, the load histogram, snapshot pause accounting, daemon uptime
// and loadgen percentiles — never a timestamp the replay-deterministic
// lifecycle can observe. The timesource analyzer (cmd/watchmanlint)
// enforces that no other file reads the clock.
//
//watchman:timesource
package clock

import "time"

// epoch anchors Nanos. time.Since on a fixed anchor uses the runtime's
// monotonic reading, so span stage durations are immune to wall-clock
// steps.
var epoch = time.Now()

// Wall returns a time source that maps wall time to the cache's logical
// seconds: seconds elapsed since the call that created it.
func Wall() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// Now returns the current clock reading, for later measurement with
// Since.
func Now() time.Time { return time.Now() }

// Since returns the wall time elapsed from a Now reading.
func Since(t time.Time) time.Duration { return time.Since(t) }

// Nanos returns nanoseconds elapsed on the monotonic clock since the
// package was initialized.
func Nanos() int64 { return int64(time.Since(epoch)) }
