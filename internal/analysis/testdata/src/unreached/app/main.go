// Command app is the root of the unreached fixture tree: what it reaches
// in package lib is live, the rest is reported.
package main

import (
	"fmt"

	"unreached/lib"
)

func main() {
	fmt.Println(lib.Name("fixture"))
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}))
	fmt.Println(lib.SumAreas(make(lib.Circles, 2)))
	fmt.Println(lib.Apply(lib.Double, 3))
	fmt.Println(lib.Table)
}
