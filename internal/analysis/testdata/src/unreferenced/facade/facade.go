// Package facade fixtures the root-facade exemption: its README cites
// facade.Documented, so the name is a documented contract even though
// no program calls it.
package facade

// Documented is cited by README.md.
func Documented() {}

// Undocumented is cited nowhere and called by nothing.
func Undocumented() {} // want `exported function Undocumented is referenced by no non-test file`

// Called is what the program uses.
func Called() {}
