// Package nomain is loaded without any main package: with no root, the
// unreached check reports nothing, however unused its functions are.
package nomain

// Unused has no caller anywhere.
func Unused() int { return 0 }
