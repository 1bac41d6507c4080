// Command app is the fixture module's program: main packages are only
// callers, never reported.
package main

import (
	"fmt"

	"unreferenced/facade"
	"unreferenced/lib"
)

// Exported names in a main package are never reported.
func Exported() {}

func main() {
	var r lib.Runner = lib.T{}
	var x any = lib.T{}
	if d, ok := x.(interface{ Drop(...string) }); ok {
		d.Drop("orders")
	}
	fmt.Println(r.Run(), x, lib.Used(), lib.Limit, lib.New(lib.Config{Size: 1}))
	facade.Called()
}
