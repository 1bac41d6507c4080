// Package a fixtures the hotpathalloc analyzer: every construct the
// //watchman:hotpath contract forbids, and the shapes escape analysis
// keeps cheap that it deliberately permits.
package a

import "fmt"

type point struct{ x, y int }

func sink(v any)        {}
func sinkAll(vs ...any) {}

// Bad contains one of each flagged construct.
//
//watchman:hotpath
func Bad(n int, s string, xs []int) {
	m := map[string]int{} // want `map literal allocates on the hot path`
	_ = m
	sl := []int{1, 2} // want `slice literal allocates on the hot path`
	_ = sl
	p := &point{} // want `&composite literal allocates on the hot path`
	_ = p
	b := make([]byte, n) // want `make allocates on the hot path`
	_ = b
	q := new(point) // want `new allocates on the hot path`
	_ = q
	xs = append(xs, n)           // want `append may grow its backing array on the hot path`
	_ = fmt.Sprintf("%d", n)     // want `fmt call allocates on the hot path`
	_ = []byte(s)                // want `string conversion allocates on the hot path`
	f := func() int { return n } // want `closure captures outer variables and allocates on the hot path`
	_ = f()
}

// BadBox boxes a struct value into an interface parameter.
//
//watchman:hotpath
func BadBox(p point) {
	sink(p) // want `boxing a point into an interface allocates on the hot path`
}

// OKBox passes pointers and basic values: escape analysis routinely keeps
// those off the heap, so the analyzer leaves them to the allocation
// benchmarks.
//
//watchman:hotpath
func OKBox(p *point, n int) {
	sink(p)
	sink(n)
}

// OKSpread forwards an existing []any; no per-element boxing happens.
//
//watchman:hotpath
func OKSpread(vs []any) {
	sinkAll(vs...)
}

// OKClosure materializes a closure that captures nothing.
//
//watchman:hotpath
func OKClosure() int {
	f := func() int { return 42 }
	return f()
}

// BadConv materializes a string from bytes: a copy on the heap.
//
//watchman:hotpath
func BadConv(b []byte) string {
	return string(b) // want `string conversion allocates on the hot path`
}

// OKCompare converts only as the operand of a comparison, which the
// compiler evaluates over the slice's own memory.
//
//watchman:hotpath
func OKCompare(ids []string, b []byte) bool {
	for _, id := range ids {
		if id == string(b) {
			return true
		}
	}
	return false
}

// BadGeneric is flagged for the []byte instantiation of its conversion.
//
//watchman:hotpath
func BadGeneric[ID string | []byte](id ID) string {
	return string(id) // want `string conversion allocates on the hot path`
}

// OKProbe is the index probe's shape: generic over the ID's form, and the
// conversion feeds a comparison.
//
//watchman:hotpath
func OKProbe[ID string | []byte](ids []string, id ID) bool {
	for _, s := range ids {
		if s == string(id) {
			return true
		}
	}
	return false
}

// Fault keeps its one deliberate allocation on record with a justified
// suppression, mirroring buffer.Pool.Read's fault path.
//
//watchman:hotpath
func Fault(id int, frames map[int]*point) {
	//lint:ignore hotpathalloc the fault path must materialize a frame
	frames[id] = &point{x: id}
}

// Unhot is not annotated; its allocations are its own business.
func Unhot() []int {
	return append([]int{}, 1)
}
