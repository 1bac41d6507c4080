//go:build !race

// Package raceflag reports whether the program was built with the race
// detector. Allocation-count assertions consult it: the detector's
// instrumentation allocates on its own, so testing.AllocsPerRun counts
// mean nothing under -race.
package raceflag

// Enabled reports a -race build.
const Enabled = false
