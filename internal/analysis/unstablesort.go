package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unstablesort flags unstable sorts in deterministic packages whose
// comparison may tie. sort.Slice and sort.Sort are explicitly
// *unstable*: elements that compare equal land in an order inherited
// from the input permutation and the pdqsort pivot choices, so a sort
// keyed on a potentially-tying projection ("by .key") leaves the
// relative order of equal-keyed rows unspecified — exactly the kind of
// silent nondeterminism that reaches table and trace bytes. Three
// shapes are accepted without suppression:
//
//   - stable sorts: sort.SliceStable, sort.Stable, slices.SortStableFunc;
//   - whole-element comparisons (out[i] < out[j], cmp.Compare(a, b)):
//     tied elements are identical values, so their mutual order is
//     unobservable;
//   - tie-breaker chains: a less/cmp function that compares two or more
//     distinct keys (the analyzer checks key count, not chain logic —
//     a deliberately partial multi-key order still needs review).
//
// Everything else — single projected key, a named comparison function
// the analyzer cannot see into, sort.Sort's opaque Less — is flagged.
var Unstablesort = leaf("unstablesort", "flags sort.Slice/sort.Sort in deterministic packages whose comparison may tie without a tie-breaker")

// unstableSortAt reports whether call is an unstable sort over a
// comparison that may tie, with a diagnostic message when it is.
func unstableSortAt(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch pkg, name := fn.Pkg().Path(), fn.Name(); {
	case pkg == "sort" && name == "Sort":
		return "sort.Sort is unstable and its Less implementation cannot be audited at the call site; tied elements land in nondeterministic order — use sort.Stable, or sort.SliceStable with a total order (determinism contract, ARCHITECTURE.md)", true
	case pkg == "sort" && name == "Slice":
		return auditLess(info, call, 1, false)
	case pkg == "slices" && name == "SortFunc":
		return auditLess(info, call, 1, true)
	}
	// sort.SliceStable/sort.Stable/slices.SortStableFunc are stable;
	// sort.Strings/Ints/Float64s and slices.Sort order by the whole
	// value, so ties are identical elements.
	return "", false
}

// auditLess audits the comparison function of sort.Slice (less(i, j)
// indexing the container) or slices.SortFunc (cmp(a, b) over elements,
// byElem true) for a provable total order.
func auditLess(info *types.Info, call *ast.CallExpr, lessArg int, byElem bool) (string, bool) {
	fname := "sort.Slice"
	stable := "sort.SliceStable"
	if byElem {
		fname, stable = "slices.SortFunc", "slices.SortStableFunc"
	}
	if len(call.Args) <= lessArg {
		return "", false
	}
	lit, ok := call.Args[lessArg].(*ast.FuncLit)
	if !ok {
		return fmt.Sprintf("%s with a non-literal comparison function: cannot audit it for potentially-tying keys — inline the comparison, use %s, or suppress with the proof", fname, stable), true
	}
	p1, p2 := lessParams(info, lit)
	if p1 == nil || p2 == nil {
		return "", false // malformed; the type checker already complained
	}
	keys := lessKeys(info, lit.Body, p1, p2)

	// The whole-element key: tied elements are identical values, so an
	// unstable sort cannot be observed.
	whole := "§"
	if !byElem {
		whole = normExpr(info, call.Args[0], p1, p2) + "[§]"
	}
	if keys[whole] {
		return "", false
	}
	switch len(keys) {
	case 0:
		return fmt.Sprintf("%s comparison has no recognizable mirrored key: cannot prove a total order, and ties land in nondeterministic order — use %s or restructure the comparison", fname, stable), true
	case 1:
		var k string
		for k = range keys {
			// single entry
		}
		return fmt.Sprintf("%s orders by the single potentially-tying key %s: equal keys land in nondeterministic order — use %s or add a tie-breaking key", fname, strings.ReplaceAll(k, "§", "·"), stable), true
	}
	return "", false // ≥2 distinct keys: a tie-breaker chain
}

// lessParams resolves the two parameter objects of a less/cmp literal.
func lessParams(info *types.Info, lit *ast.FuncLit) (types.Object, types.Object) {
	var objs []types.Object
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			objs = append(objs, info.Defs[name])
		}
	}
	if len(objs) != 2 {
		return nil, nil
	}
	return objs[0], objs[1]
}

// comparisonOps are the binary operators a less/cmp body uses to compare
// keys. SUB covers the "a.key - b.key" cmp idiom.
var comparisonOps = map[token.Token]bool{
	token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true, token.SUB: true,
}

// lessKeys collects the mirrored comparison keys of a less/cmp body: for
// every comparison (or two-argument call such as cmp.Compare or
// strings.Compare) whose operands are the same expression evaluated once
// against each sort parameter, the normalized operand — with the
// parameter replaced by § — names the key being compared.
func lessKeys(info *types.Info, body ast.Node, p1, p2 types.Object) map[string]bool {
	keys := map[string]bool{}
	add := func(x, y ast.Expr) {
		nx, ny := normExpr(info, x, p1, p2), normExpr(info, y, p1, p2)
		if nx != ny {
			return
		}
		mx1, mx2 := mentionsObj(info, x, p1), mentionsObj(info, x, p2)
		my1, my2 := mentionsObj(info, y, p1), mentionsObj(info, y, p2)
		// Each side reads exactly one of the two parameters, and the two
		// sides read different ones: a mirrored key access.
		if mx1 == mx2 || my1 == my2 || mx1 != my2 {
			return
		}
		keys[nx] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if comparisonOps[n.Op] {
				add(n.X, n.Y)
			}
		case *ast.CallExpr:
			if len(n.Args) == 2 {
				add(n.Args[0], n.Args[1])
			}
		}
		return true
	})
	return keys
}

// normExpr renders e with every use of p1 or p2 replaced by §, so the
// two sides of a mirrored comparison normalize to the same string.
// Expression forms outside the handled set fall back to
// types.ExprString, which preserves the parameter name — the two sides
// then normalize differently and simply contribute no key, keeping the
// analysis conservative.
func normExpr(info *types.Info, e ast.Expr, p1, p2 types.Object) string {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil && (obj == p1 || obj == p2) {
			return "§"
		}
		return e.Name
	case *ast.BasicLit:
		return e.Value
	case *ast.ParenExpr:
		return normExpr(info, e.X, p1, p2)
	case *ast.SelectorExpr:
		return normExpr(info, e.X, p1, p2) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return normExpr(info, e.X, p1, p2) + "[" + normExpr(info, e.Index, p1, p2) + "]"
	case *ast.StarExpr:
		return "*" + normExpr(info, e.X, p1, p2)
	case *ast.UnaryExpr:
		return e.Op.String() + normExpr(info, e.X, p1, p2)
	case *ast.BinaryExpr:
		return normExpr(info, e.X, p1, p2) + e.Op.String() + normExpr(info, e.Y, p1, p2)
	case *ast.CallExpr:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = normExpr(info, a, p1, p2)
		}
		return normExpr(info, e.Fun, p1, p2) + "(" + strings.Join(parts, ",") + ")"
	}
	return types.ExprString(e)
}
