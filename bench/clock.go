package main

// This file is the benchmark's designated time-source file: the only place
// in bench allowed to read the process clock. Every reading is a
// measurement of wall latency taken around a call into the system under
// test; the timestamps the cache sees are the streams' logical times,
// generated from the seed, never the clock.
//
//watchman:timesource

import "time"

// now returns the current monotonic clock reading.
func now() time.Time { return time.Now() }

// since returns the wall time elapsed from a reading taken with now.
func since(t time.Time) time.Duration { return time.Since(t) }
