package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// source is one occurrence of a nondeterminism source: the leaf analyzer
// whose contract it breaks, detflow's short rendering of it ("time.Now",
// "range over map m", …), the leaf's diagnostic message, and where it is.
type source struct {
	kind, what, msg string
	pos             token.Pos
}

// testAllowed are the kinds whose contracts allowlist _test.go files:
// test deadlines, harness knobs and test-only orderings never reach
// canonical bytes, because build files cannot call test functions.
var testAllowed = map[string]bool{"wallclock": true, "osenv": true, "unstablesort": true}

// carveOuts names, per kind, the package segments where it is no source
// at all, for the leaf and for detflow: internal/sweep is the audited
// home of goroutine spawns (its aggregation is proven order-independent),
// and internal/hruntime races timers against inboxes by design.
var carveOuts = map[string][]string{
	"unsortedgo":  {"sweep"},
	"selectorder": {"sweep", "hruntime"},
}

// leaf builds the analyzer enforcing one kind's contract: it reports
// every source of that kind in a deterministic package.
func leaf(kind, doc string) *Analyzer {
	return &Analyzer{Name: kind, Doc: doc, Run: func(pass *Pass) error {
		if !IsDeterministic(pass.PkgPath) {
			return nil
		}
		for _, f := range pass.Files {
			eachSource(pass, f, func(s source) {
				if s.kind == kind {
					pass.Reportf(s.pos, "%s", s.msg)
				}
			})
		}
		return nil
	}}
}

// eachSource is the one recognizer of nondeterminism sources. It walks
// root and emits, in source order, every wall-clock read, global rand
// draw or crypto/rand reference, ambient host read, unproven map range,
// goroutine spawn, multi-case select, unstable sort and pointer-format
// leak — except those the kind's contract excuses here (testAllowed,
// carveOuts). The leaf analyzers report the sources of their kind in
// deterministic packages; detflow seeds its taint from all of them, in
// every module package.
func eachSource(pass *Pass, root ast.Node, emit func(source)) {
	info := pass.Info
	add := func(kind, what, msg string, pos token.Pos) {
		if testAllowed[kind] && pass.InTestFile(pos) {
			return
		}
		for _, seg := range carveOuts[kind] {
			if hasSegment(pass.PkgPath, seg) {
				return
			}
		}
		emit(source{kind, what, msg, pos})
	}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Matching the selector rather than the call also catches
			// method values such as `f := time.Now`.
			obj, name := info.Uses[n.Sel], n.Sel.Name
			switch {
			case wallClockFuncs[name] && isPkgFunc(obj, "time"):
				add("wallclock", "time."+name, "time."+name+" reads the wall clock; deterministic packages must use virtual sim.Time (replayability contract, ARCHITECTURE.md)", n.Pos())
			case globalRandFuncs[name] && (isPkgFunc(obj, "math/rand") || isPkgFunc(obj, "math/rand/v2")):
				add("globalrand", "rand."+name, "rand."+name+" draws from the process-global source; inject a seeded *rand.Rand (sim.Env.Rand) or a keyed fate stream instead", n.Pos())
			case obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand":
				add("globalrand", "crypto/rand."+name, "crypto/rand is nondeterministic by design; deterministic packages draw randomness from an injected seeded *rand.Rand or the keyed fate streams", n.Pos())
			default:
				if what, bad := osenvAt(info, n); bad {
					add("osenv", what, what+" reads ambient host state (environment/filesystem shape); deterministic outputs must derive from (Config, seed) only (replayability contract, ARCHITECTURE.md)", n.Pos())
				}
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok {
				break
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap || orderIndependentFold(pass, n) || collectThenSort(pass, n, stack) {
				break
			}
			x := types.ExprString(n.X)
			add("maprange", "range over map "+x, "range over map "+x+": iteration order is nondeterministic; sort the keys first or fold order-independently (determinism contract, ARCHITECTURE.md)", n.Pos())
		case *ast.GoStmt:
			add("unsortedgo", "go statement", "go statement in a deterministic package: scheduler interleaving breaks byte-identical replay; route parallelism through internal/sweep's audited pool", n.Pos())
		case *ast.SelectStmt:
			if _, multi := multiSelect(n); multi {
				add("selectorder", "multi-case select", "select with multiple cases: the runtime chooses among ready cases pseudorandomly, so the branch taken is not a function of (Config, seed); restructure to a deterministic receive order or route concurrency through internal/sweep", n.Pos())
			}
		case *ast.CallExpr:
			if msg, bad := unstableSortAt(info, n); bad {
				add("unstablesort", "unstable "+types.ExprString(n.Fun), msg, n.Pos())
			}
			for _, leak := range ptrLeaksAt(info, n) {
				add("ptrformat", "fmt address/order leak", leak.msg, leak.pos)
			}
		}
		return true
	})
}
