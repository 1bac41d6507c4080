package lib

import (
	"testing"

	"unreferenced/testonly"
)

func TestOnlyTested(t *testing.T) {
	testonly.Helper()
	if OnlyTested() != 3 || !New(Config{Verbose: true}).Verbose {
		t.Fatal("fixture")
	}
}
