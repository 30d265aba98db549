package analysis

import (
	"go/ast"
	"go/types"
)

// Unstablesort flags unstable sorts in deterministic packages. sort.Slice,
// slices.SortFunc and sort.Sort are explicitly *unstable*: elements that
// compare equal land in an order inherited from the input permutation
// and the pdqsort pivot choices, so any comparison that can tie leaves
// the relative order of the tied rows unspecified — exactly the kind of
// silent nondeterminism that reaches table and trace bytes. The rule is
// syntactic: every call to one of the three is flagged, whatever its
// comparison, because whether a comparison is a total order is not
// something a call site proves. Two shapes pass:
//
//   - stable sorts: sort.SliceStable, sort.Stable, slices.SortStableFunc;
//   - whole-value sorts: slices.Sort, sort.Strings/Ints/Float64s, where
//     tied elements are identical values, so their mutual order is
//     unobservable.
var Unstablesort = leaf("unstablesort", "flags sort.Slice, slices.SortFunc and sort.Sort in deterministic packages")

// stableFor maps each unstable sort to its stable replacement.
var stableFor = map[string]string{
	"sort.Slice":      "sort.SliceStable",
	"slices.SortFunc": "slices.SortStableFunc",
	"sort.Sort":       "sort.Stable",
}

// unstableSortAt reports whether call is an unstable sort, with a
// diagnostic message when it is.
func unstableSortAt(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	name := fn.Pkg().Path() + "." + fn.Name()
	stable, bad := stableFor[name]
	if !bad {
		return "", false
	}
	return name + " is unstable: elements that compare equal land in nondeterministic order — use " + stable + ", or slices.Sort when the elements themselves are the key (determinism contract, ARCHITECTURE.md)", true
}
