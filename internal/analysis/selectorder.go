package analysis

import "go/ast"

// multiSelect reports whether n is a select statement with more than one
// case. When two or more cases are runnable, the runtime picks one
// uniformly at random (a deliberate anti-starvation measure), so the
// branch taken — and therefore any state or output derived from it — is
// not a function of (Config, seed). A single-case select without a
// default is an ordinary blocking receive/send and is allowed; a default
// clause counts as a case, because "was the channel ready when we
// polled" is scheduler timing, not seeded input.
func multiSelect(n ast.Node) (*ast.SelectStmt, bool) {
	sel, ok := n.(*ast.SelectStmt)
	if !ok || len(sel.Body.List) < 2 {
		return nil, false
	}
	return sel, true
}

// Selectorder flags multi-case select statements in deterministic
// packages. internal/hruntime and internal/sweep are carved out (see
// carveOuts), in the taint lattice too. Like unsortedgo, tests are not
// exempt: a select in a deterministic package's tests is still a
// scheduler-chosen branch and must be a deliberate, enumerable exception
// (//detlint:ignore with a reason) rather than ambient concurrency.
var Selectorder = leaf("selectorder", "flags multi-case select statements in deterministic packages (runtime case choice is randomized)")
