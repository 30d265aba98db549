// Package lib holds one function or method per reachability edge of the
// unreached check, and the shapes it must report.
package lib

// OnlyTested has a caller only in lib_test.go: tests are not roots.
func OnlyTested() int { return 1 } // want `lib.OnlyTested is reached from no main function or package initializer`

// Shape is a module interface: a call through it reaches every
// same-name, same-arity method.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{ Side int }

// Area is reached through Shape.Area in Total, and as a method Shape
// names of a type main uses.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is a method of a type main converts to an interface, but no
// interface names it, so nothing can call it through one.
func (s Square) Perimeter() int { return 4 * s.Side } // want `lib.\(Square\).Perimeter is reached from no main function`

// Total sums the areas of shapes.
func Total(shapes []Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Circle implements Shape, but main never names it: only Circles.
type Circle struct{ R int }

// Area is reached only by the interface-method edge, from the call on a
// type parameter in SumAreas: no reached code uses a Circle value.
func (c Circle) Area() int { return 3 * c.R * c.R }

// Circles is a slice of circles.
type Circles []Circle

// SumAreas sums the areas of xs.
func SumAreas[S Shape](xs []S) int {
	sum := 0
	for _, x := range xs {
		sum += x.Area()
	}
	return sum
}

// Name is printed by main: fmt calls its String through fmt.Stringer.
type Name string

// String is reached only through fmt.
func (n Name) String() string { return "name:" + string(n) }

// Double is reached only as a value passed to Apply.
func Double(x int) int { return 2 * x }

// Apply calls f on x.
func Apply(f func(int) int, x int) int { return f(x) }

// Table is built by a package-level var initializer.
var Table = build()

// build is called only from Table's initializer.
func build() map[string]int { return map[string]int{"a": 1} }

// Kept has no caller, and is kept on purpose: it and what it calls count
// as reached.
//
//detlint:ignore unreached kept to pin the suppression in the fixture
func Kept() int { return keptHelper() }

// keptHelper is called only by Kept.
func keptHelper() int { return 2 }
