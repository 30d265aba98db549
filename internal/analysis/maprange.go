package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maprange flags range-over-map loops in deterministic packages. Map
// iteration order is randomized by the runtime, so any result that
// depends on visit order — appended slices, last-writer-wins variables,
// early exits, rendered output — differs run to run. Two shapes are
// proven order-independent and accepted without a suppression:
//
//   - collect-then-sort: the loop only appends keys/values to slices and
//     every such slice is passed to a sort/slices sorting call later in
//     the same function;
//   - order-independent fold: every statement in the body is a
//     commutative accumulation (x += e, x++, bitwise-op-assign), an
//     idempotent constant assignment, a keyed map write m[k] = e or
//     delete(m2, k), or a min/max tracking pattern (if v > best
//     { best = v }) — with right-hand sides that neither call impure
//     functions nor read the loop's own accumulators.
//
// Everything else needs a sort, a rewrite, or a justified
// //detlint:ignore.
var Maprange = leaf("maprange", "flags range over a map in deterministic packages unless sorted or provably order-independent")

// foldScope carries what the fold prover knows about one range body.
type foldScope struct {
	pass      *Pass
	keyObj    types.Object         // the range key variable (may be nil)
	valObj    types.Object         // the range value variable (may be nil)
	assigned  map[types.Object]int // ident-assignment counts inside the body
	localDefs map[types.Object]bool
}

// orderIndependentFold reports whether every statement in the range body
// is one of the proven order-independent shapes.
func orderIndependentFold(pass *Pass, rs *ast.RangeStmt) bool {
	sc := newFoldScope(pass, rs)
	for _, s := range rs.Body.List {
		if !sc.safeStmt(s) {
			return false
		}
	}
	return true
}

// newFoldScope scans the range body once, recording which identifiers it
// assigns (order-sensitive to read) and which it defines (iteration-local,
// safe to read).
func newFoldScope(pass *Pass, rs *ast.RangeStmt) *foldScope {
	sc := &foldScope{
		pass:      pass,
		keyObj:    rangeVarObj(pass, rs.Key),
		valObj:    rangeVarObj(pass, rs.Value),
		assigned:  map[types.Object]int{},
		localDefs: map[types.Object]bool{},
	}
	markWrite := func(e ast.Expr) {
		// An indexed write m[k] = … mutates m: record the base so reads
		// of other entries are recognized as order-sensitive.
		if idx, ok := e.(*ast.IndexExpr); ok {
			e = idx.X
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				sc.assigned[obj]++
			}
		}
	}
	markDef := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		if obj, isDef := pass.Info.Defs[id]; isDef && obj != nil {
			// Defined inside the body → iteration-scoped: reads of it
			// cannot observe cross-iteration order.
			sc.localDefs[obj] = true
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				markWrite(lhs)
				markDef(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(s.X)
		case *ast.RangeStmt:
			markDef(s.Key)
			markDef(s.Value)
		case *ast.ValueSpec:
			for _, name := range s.Names {
				markDef(name)
			}
		}
		return true
	})
	return sc
}

func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.Info.ObjectOf(id)
}

func (sc *foldScope) safeStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.ReturnStmt:
		// A `return <constants>` is an existence or validation scan:
		// whichever iteration triggers it returns the same values, so
		// visit order cannot change the function's result.
		for _, r := range s.Results {
			if sc.pass.Info.Types[r].Value == nil {
				return false
			}
		}
		return true
	case *ast.BlockStmt:
		for _, inner := range s.List {
			if !sc.safeStmt(inner) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		return sc.safeIf(s)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && sc.safeDelete(call)
	case *ast.AssignStmt:
		return sc.safeAssign(s)
	case *ast.DeclStmt:
		// var declarations introduce iteration-scoped names (collected
		// as localDefs); initializers must be order-insensitive.
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, v := range vs.Values {
				if !sc.safeExpr(v, nil) {
					return false
				}
			}
		}
		return true
	case *ast.RangeStmt:
		// A nested range is safe when its operand is order-insensitive
		// and its body is: the inner loop's own visit order is either
		// deterministic (slices) or covered by the same proof (maps).
		if !sc.safeExpr(s.X, nil) {
			return false
		}
		return sc.safeStmt(s.Body)
	case *ast.ForStmt:
		if s.Init != nil && !sc.safeStmt(s.Init) {
			return false
		}
		if s.Cond != nil && !sc.safeExpr(s.Cond, nil) {
			return false
		}
		if s.Post != nil && !sc.safeStmt(s.Post) {
			return false
		}
		return sc.safeStmt(s.Body)
	}
	return false
}

// safeAssign accepts commutative op-assignments, idempotent
// single-constant assignments, and keyed map writes.
func (sc *foldScope) safeAssign(s *ast.AssignStmt) bool {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, rhs := s.Lhs[0], s.Rhs[0]
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative fold: safe when the contribution of each entry is
		// independent of visit order, i.e. the RHS reads no accumulator.
		return sc.safeExpr(rhs, nil)
	case token.ASSIGN, token.DEFINE:
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			// m[k-derived] = e visits each key once; entries are
			// independent. The RHS may read the entry being written
			// (m[k] = append(m[k], v)) but no other mutated state.
			if sc.keyObj != nil && mentionsObj(sc.pass.Info, idx.Index, sc.keyObj) {
				return sc.safeExpr(idx.Index, nil) && sc.safeExpr(rhs, idx)
			}
			// seen[x] = <constant> is idempotent whatever the index:
			// colliding iterations write the same value — provided this
			// is the only statement mutating the indexed collection.
			if base, ok := idx.X.(*ast.Ident); ok {
				obj := sc.pass.Info.ObjectOf(base)
				tv := sc.pass.Info.Types[rhs]
				return obj != nil && sc.assigned[obj] == 1 && tv.Value != nil &&
					sc.safeExpr(idx.Index, nil)
			}
			return false
		}
		if id, ok := lhs.(*ast.Ident); ok {
			obj := sc.pass.Info.ObjectOf(id)
			if obj == nil {
				return false
			}
			// Iteration-local temps (defined inside the body) may hold
			// anything order-insensitive.
			if sc.localDefs[obj] {
				return sc.safeExpr(rhs, nil)
			}
			// x = <constant> is idempotent — every iteration writes the
			// same value — provided no other statement writes x.
			tv := sc.pass.Info.Types[rhs]
			return sc.assigned[obj] == 1 && tv.Value != nil
		}
	}
	return false
}

// safeIf accepts the min/max tracking pattern and conditionals whose
// condition is order-insensitive and whose branches are safe.
func (sc *foldScope) safeIf(s *ast.IfStmt) bool {
	if s.Init != nil {
		return false
	}
	if sc.minMaxPattern(s) {
		return true
	}
	if !sc.safeExpr(s.Cond, nil) {
		return false
	}
	if !sc.safeStmt(s.Body) {
		return false
	}
	return s.Else == nil || sc.safeStmt(s.Else)
}

// minMaxPattern matches `if candidate REL best { best = candidate }` (no
// else, no init): running min/max is a commutative, associative,
// idempotent fold, so visit order cannot change the result.
func (sc *foldScope) minMaxPattern(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	// Peel order-insensitive guard conjuncts: `if v != sentinel && v > best
	// { best = v }` is still a running max, just over a filtered subset.
	cond, ok := s.Cond.(*ast.BinaryExpr)
	for ok && cond.Op == token.LAND && sc.safeExpr(cond.X, nil) {
		cond, ok = cond.Y.(*ast.BinaryExpr)
	}
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	asg, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	best, cand := types.ExprString(asg.Lhs[0]), types.ExprString(asg.Rhs[0])
	x, y := types.ExprString(cond.X), types.ExprString(cond.Y)
	if !(x == best && y == cand) && !(x == cand && y == best) {
		return false
	}
	// The candidate side must itself be order-insensitive (typically the
	// range value or a projection of it).
	return sc.safeExpr(asg.Rhs[0], nil)
}

// safeDelete accepts delete(m, k-derived) where m is not the map being
// ranged over (deleting from the ranged map mid-iteration changes which
// entries are visited).
func (sc *foldScope) safeDelete(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "delete" || len(call.Args) != 2 {
		return false
	}
	if obj, ok := sc.pass.Info.Uses[id]; !ok || obj != types.Universe.Lookup("delete") {
		return false
	}
	return sc.safeExpr(call.Args[0], nil) && sc.safeExpr(call.Args[1], nil)
}

// pureBuiltins are call targets a fold RHS may use: they read their
// operands and nothing else.
var pureBuiltins = map[string]bool{"len": true, "cap": true, "min": true, "max": true, "abs": true, "real": true, "imag": true, "complex": true}

// safeExpr reports whether e is order-insensitive: it contains no call
// (except pure builtins and type conversions) and reads no variable the
// loop body assigns. selfEntry, when non-nil, is the exact map entry
// being written by the enclosing assignment, which the RHS may read.
func (sc *foldScope) safeExpr(e ast.Expr, selfEntry *ast.IndexExpr) bool {
	safe := true
	selfStr := ""
	if selfEntry != nil {
		selfStr = types.ExprString(selfEntry)
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if !safe {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if pureBuiltins[id.Name] && sc.pass.Info.Uses[id] == types.Universe.Lookup(id.Name) {
					return true
				}
				if _, isType := sc.pass.Info.Uses[id].(*types.TypeName); isType {
					return true // conversion
				}
			}
			if sc.isConversion(n.Fun) {
				return true
			}
			safe = false
			return false
		case *ast.IndexExpr:
			if selfStr != "" && types.ExprString(n) == selfStr {
				return false // the entry being written; don't descend
			}
		case *ast.Ident:
			obj := sc.pass.Info.ObjectOf(n)
			if obj != nil && obj != sc.keyObj && obj != sc.valObj &&
				sc.assigned[obj] > 0 && !sc.localDefs[obj] {
				safe = false
				return false
			}
		case *ast.FuncLit:
			safe = false
			return false
		}
		return true
	})
	return safe
}

// isConversion reports whether fun denotes a type (T(x) is a conversion,
// not a call).
func (sc *foldScope) isConversion(fun ast.Expr) bool {
	tv, ok := sc.pass.Info.Types[fun]
	return ok && tv.IsType()
}

// sortPkgs are the packages whose calls count as sorting a collected
// slice.
var sortPkgs = map[string]bool{"sort": true, "slices": true}

// collectThenSort reports whether the loop only appends to slices
// (possibly behind order-insensitive guards) that are all passed to a
// sort/slices call later in the same function.
func collectThenSort(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) bool {
	sc := newFoldScope(pass, rs)
	collected := map[types.Object]bool{}
	if !collectAppends(sc, rs.Body.List, collected) || len(collected) == 0 {
		return false
	}
	body := enclosingFuncBody(stack)
	if body == nil {
		return false
	}
	for obj := range collected {
		if !sortedAfter(pass, body, obj, rs.End()) {
			return false
		}
	}
	return true
}

// collectAppends walks statements accepting appends and conditionals that
// guard appends; the guard must not read anything the loop assigns (a
// guard over a collected slice would make the collected *set* depend on
// visit order, not just its order).
func collectAppends(sc *foldScope, stmts []ast.Stmt, collected map[types.Object]bool) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			obj, ok := appendTarget(sc.pass, s)
			if !ok {
				return false
			}
			collected[obj] = true
		case *ast.IfStmt:
			if s.Init != nil || !sc.safeExpr(s.Cond, nil) {
				return false
			}
			if !collectAppends(sc, s.Body.List, collected) {
				return false
			}
			if s.Else != nil {
				block, ok := s.Else.(*ast.BlockStmt)
				if !ok || !collectAppends(sc, block.List, collected) {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// appendTarget matches `s = append(s, …)` and returns s's object.
func appendTarget(pass *Pass, s ast.Stmt) (types.Object, bool) {
	asg, ok := s.(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return nil, false
	}
	id, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || pass.Info.Uses[fn] != types.Universe.Lookup("append") {
		return nil, false
	}
	if len(call.Args) == 0 || types.ExprString(call.Args[0]) != id.Name {
		return nil, false
	}
	obj := pass.Info.ObjectOf(id)
	return obj, obj != nil
}

// enclosingFuncBody finds the innermost function body on the node stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// sortedAfter reports whether a sort/slices call that mentions obj
// appears after pos within body.
func sortedAfter(pass *Pass, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fnObj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fnObj.Pkg() == nil || !sortPkgs[fnObj.Pkg().Path()] {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObj(pass.Info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsObj reports whether e references obj.
func mentionsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
