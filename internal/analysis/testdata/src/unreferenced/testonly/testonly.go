// Package testonly is imported only by a _test.go file: it is test
// support, so its exported names are exempt.
package testonly

// Helper is called only by tests, which is what the package is for.
func Helper() {}
