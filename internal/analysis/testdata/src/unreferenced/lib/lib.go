// Package lib fixtures the unreferenced analyzer: the main package in
// cmd/app is the only non-test caller, and lib_test.go reaches what
// nothing else does.
package lib

import "fmt"

// Runner is the interface the program uses T through.
type Runner interface{ Run() int }

// T is used only as a Runner and as a fmt.Stringer.
type T struct{}

// Run is reached only through Runner: implementing an interface the
// program uses T as counts as a reference.
func (T) Run() int { return 1 }

// Drop is reached only through an anonymous assertion in the program.
func (T) Drop(relations ...string) {}

// String is reached only by fmt, through a dynamic fmt.Stringer check.
func (T) String() string { return fmt.Sprint(1) }

// Spare is a method of T that nothing calls.
func (T) Spare() {} // want `exported method T\.Spare is referenced by no non-test file`

// Used is called by the program.
func Used() int { return 2 }

// OnlyTested has one caller, in lib_test.go.
func OnlyTested() int { return 3 } // want `exported function OnlyTested is referenced by no non-test file`

// Limit is a constant the program reads; Unused is one nothing reads.
const (
	Limit  = 4
	Unused = 5 // want `exported constant Unused is referenced by no non-test file`
)

// Kept has no caller but stays on purpose.
//
//lint:ignore unreferenced fixture: an ignore with a reason silences the finding
func Kept() {}

// Config parameterizes the program.
type Config struct {
	// Size is set by the program.
	Size int
	// Verbose is set only by lib_test.go.
	Verbose bool // want `config field Config\.Verbose is assigned by no non-test file outside package lib`
	// Depth is assigned only inside this package, by New.
	Depth int // want `config field Config\.Depth is assigned by no non-test file outside package lib`
}

// New applies the defaults.
func New(cfg Config) Config {
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	return cfg
}
