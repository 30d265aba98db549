package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FuncKey identifies a function or method declared in the loaded units
// independently of type-checker object identity. The same source
// function is type-checked twice when its package is both analyzed
// directly (a Unit) and imported by another unit (the loader's base
// cache), so graph nodes are keyed by (package path, receiver type
// name, function name) instead of by *types.Func pointers.
type FuncKey string

func makeFuncKey(pkg, recv, name string) FuncKey {
	if recv == "" {
		return FuncKey(pkg + "." + name)
	}
	return FuncKey(pkg + ".(" + recv + ")." + name)
}

// funcKeyOf computes the key for a resolved function object. ok is
// false for objects the graph does not key directly: functions outside
// any package (universe builtins) and interface methods, whose call
// sites dispatch dynamically.
func funcKeyOf(fn *types.Func) (key FuncKey, dynamic bool, ok bool) {
	if fn.Pkg() == nil {
		return "", false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false, false
	}
	recv := ""
	if r := sig.Recv(); r != nil {
		t := types.Unalias(r.Type())
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = types.Unalias(p.Elem())
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			// Receiver is an unnamed interface or similar: dynamic.
			return "", true, false
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			return "", true, false
		}
		recv = named.Obj().Name()
	}
	return makeFuncKey(fn.Pkg().Path(), recv, fn.Name()), false, true
}

// flowFunc is one function or method declared in a loaded unit's build
// files: a node of the interprocedural call graph.
type flowFunc struct {
	key      FuncKey
	pkgPath  string // the unit's directory import path
	display  string // "sim.helper", "trace.(Recorder).Record"
	det      bool   // declared in a deterministic package
	exported bool   // exported name on an exported (or no) receiver
	pos      token.Position
	arity    [2]int // len(params), len(results) — for dynamic matching

	calls   []flowCall // call sites, in source order
	sources []int      // direct source-instance ids, in source order

	// callers is the reverse edge set, built after all calls resolve.
	callers []callerRef
}

type flowCall struct {
	pos     token.Pos
	callee  *flowFunc
	dynamic bool
	// sup is the //detlint:ignore detflow suppression covering the call
	// line, if any: the edge is vetted, so live taint crossing it
	// degrades to suppressed taint.
	sup *Suppression
}

type callerRef struct {
	fn   *flowFunc
	call *flowCall
}

// srcInst is one nondeterminism source instance: a concrete occurrence
// of a wall-clock read, global rand draw, unproven map range, goroutine
// spawn, multi-case select, unstable sort, ambient host read, or
// pointer-formatting leak — or a synthetic instance standing for live
// taint vetted at a suppressed detflow call edge.
type srcInst struct {
	id    int
	kind  string // the leaf analyzer name ("wallclock", …) — lattice element
	what  string // human description ("time.Now", "range over map m", …)
	pos   token.Position
	sup   *Suppression // non-nil when the instance is vetted (leaf- or edge-suppressed)
	owner *flowFunc    // the function containing the source (nil for synthetics)
}

// flowGraph is the whole-module call graph plus the source-instance
// table, the input to the taint fixpoint.
type flowGraph struct {
	fset  *token.FileSet
	root  string // positions render relative to this
	funcs map[FuncKey]*flowFunc
	order []*flowFunc // deterministic iteration order (by position)
	insts []*srcInst

	// methodIndex maps method name -> candidate implementations in
	// deterministic packages, for interface-call over-approximation.
	methodIndex map[string][]*flowFunc
	// addrTaken lists deterministic-package functions referenced as
	// values anywhere in the loaded units, the candidate set for
	// func-value calls.
	addrTaken map[FuncKey]*flowFunc
	// promoted lists the exported methods exported deterministic-package
	// types promote from embedded fields (see addPromoted).
	promoted []promotedMethod

	sups []Suppression
}

// rel renders a position with its filename relative to the graph root.
func (g *flowGraph) rel(pos token.Position) string {
	name := pos.Filename
	if r, err := filepath.Rel(g.root, name); err == nil && !strings.HasPrefix(r, "..") {
		name = filepath.ToSlash(r)
	}
	return name + ":" + strconv.Itoa(pos.Line)
}

// isTestFilename reports whether the file at pos is a _test.go file.
// detflow analyzes build files only: test functions cannot be called
// from build files, so they neither contribute sources nor need
// summaries.
func isTestFilename(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// buildFlowGraph constructs the call graph over the given units. Units
// of external test packages ("foo_test") and declarations in _test.go
// files are skipped entirely.
func buildFlowGraph(fset *token.FileSet, units []*Unit, root string, sups []Suppression) *flowGraph {
	g := &flowGraph{
		fset:        fset,
		root:        root,
		funcs:       make(map[FuncKey]*flowFunc),
		methodIndex: make(map[string][]*flowFunc),
		addrTaken:   make(map[FuncKey]*flowFunc),
		sups:        sups,
	}

	// Pass 1: register every build-file function declaration.
	type declUnit struct {
		decl *ast.FuncDecl
		unit *Unit
		fn   *flowFunc
	}
	var decls []declUnit
	for _, unit := range units {
		if strings.HasSuffix(unit.Name, "_test") {
			continue
		}
		for _, file := range unit.Files {
			if isTestFilename(fset, file.Pos()) {
				continue
			}
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil || decl.Name.Name == "init" || decl.Name.Name == "_" {
					continue
				}
				obj, ok := unit.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				key, _, ok := funcKeyOf(obj)
				if !ok {
					continue
				}
				fn := &flowFunc{
					key:      key,
					pkgPath:  unit.PkgPath,
					display:  displayName(unit.PkgPath, decl),
					det:      IsDeterministic(unit.PkgPath),
					exported: exportedAPI(decl),
					pos:      fset.Position(decl.Pos()),
					arity:    arityOf(obj),
				}
				g.funcs[key] = fn
				decls = append(decls, declUnit{decl, unit, fn})
				if decl.Recv != nil && fn.det {
					g.methodIndex[decl.Name.Name] = append(g.methodIndex[decl.Name.Name], fn)
				}
			}
		}
	}

	for _, unit := range units {
		if !strings.HasSuffix(unit.Name, "_test") && IsDeterministic(unit.PkgPath) {
			g.addPromoted(unit)
		}
	}

	// Pass 2a: collect address-taken deterministic functions — every
	// use of a declared function object in non-call position, anywhere
	// in the loaded units (test files included: a test passing a build
	// function somewhere still reveals it escapes). Direct-callee
	// positions are subtracted so plain calls do not count as taken.
	for _, unit := range units {
		for _, file := range unit.Files {
			calleePos := map[token.Pos]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					fun := ast.Unparen(call.Fun)
					switch f := fun.(type) {
					case *ast.Ident:
						calleePos[f.Pos()] = true
					case *ast.SelectorExpr:
						calleePos[f.Sel.Pos()] = true
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || calleePos[id.Pos()] {
					return true
				}
				fn, ok := unit.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if key, _, ok := funcKeyOf(fn); ok {
					if node := g.funcs[key]; node != nil && node.det {
						g.addrTaken[key] = node
					}
				}
				return true
			})
		}
	}

	// Pass 2b: resolve call sites and scan for source instances.
	for _, du := range decls {
		g.scanFunc(du.fn, du.decl, du.unit)
	}

	// Deterministic node order and reverse edges.
	g.order = make([]*flowFunc, 0, len(g.funcs))
	for _, fn := range g.funcs {
		g.order = append(g.order, fn)
	}
	sort.Slice(g.order, func(i, j int) bool {
		a, b := g.order[i], g.order[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		return a.pos.Line < b.pos.Line
	})
	for _, fn := range g.order {
		for i := range fn.calls {
			c := &fn.calls[i]
			if c.callee != nil {
				c.callee.callers = append(c.callee.callers, callerRef{fn, c})
			}
		}
	}
	return g
}

// promotedMethod is an exported method an exported type promotes from an
// embedded field: part of the type's API, declared on the embedded type.
type promotedMethod struct {
	pkgPath string    // the promoting type's package
	name    string    // "(Fig8).OnMessage"
	fn      *flowFunc // the declaring function
}

// addPromoted records the methods each exported type of unit promotes from
// its embedded fields, keyed to the functions that declare them. Methods
// of embedded interfaces and of types outside the loaded units have no
// declaration in the graph and are left out.
func (g *flowGraph) addPromoted(unit *Unit) {
	scope := unit.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() || isTestFilename(g.fset, tn.Pos()) {
			continue
		}
		if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < mset.Len(); i++ {
			sel := mset.At(i)
			fn, ok := sel.Obj().(*types.Func)
			if !ok || len(sel.Index()) < 2 || !fn.Exported() {
				continue // declared on the type itself, or unexported
			}
			if key, _, ok := funcKeyOf(fn); ok && g.funcs[key] != nil {
				g.promoted = append(g.promoted, promotedMethod{unit.PkgPath, "(" + name + ")." + fn.Name(), g.funcs[key]})
			}
		}
	}
}

// displayName renders a function for chains and the report:
// "sim.helper", "trace.(Recorder).Record". The package part is the last
// path segment, enough to be unambiguous in this module's chains.
func displayName(pkgPath string, decl *ast.FuncDecl) string {
	seg := pkgPath
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	if decl.Recv == nil {
		return seg + "." + decl.Name.Name
	}
	return seg + ".(" + recvTypeName(decl) + ")." + decl.Name.Name
}

// recvTypeName extracts the receiver base type name from a declaration,
// stripping pointers and type parameters.
func recvTypeName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return ""
	}
	t := decl.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// exportedAPI reports whether decl is part of the package's exported
// API: exported name, and for methods an exported receiver type.
func exportedAPI(decl *ast.FuncDecl) bool {
	if !ast.IsExported(decl.Name.Name) {
		return false
	}
	if decl.Recv == nil {
		return true
	}
	return ast.IsExported(recvTypeName(decl))
}

func arityOf(fn *types.Func) [2]int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return [2]int{-1, -1}
	}
	return [2]int{sig.Params().Len(), sig.Results().Len()}
}

// scanFunc walks one function body (function literals inlined: their
// sources and call sites attribute to the enclosing declaration, which
// is where a human would fix them) recording source instances, as the
// leaf analyzers' recognizer finds them, and call edges.
func (g *flowGraph) scanFunc(fn *flowFunc, decl *ast.FuncDecl, unit *Unit) {
	pass := &Pass{Fset: g.fset, Files: unit.Files, Pkg: unit.Pkg, Info: unit.Info, PkgPath: unit.PkgPath}
	eachSource(pass, decl, func(s source) { g.addSource(fn, s) })
	ast.Inspect(decl, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			g.addCall(fn, call, unit.Info)
		}
		return true
	})
}

// addSource records one direct source instance on fn, honouring a
// //detlint:ignore <kind> suppression on or directly above the line.
func (g *flowGraph) addSource(fn *flowFunc, s source) {
	position := g.fset.Position(s.pos)
	inst := &srcInst{
		id:    len(g.insts),
		kind:  s.kind,
		what:  s.what,
		pos:   position,
		sup:   findSuppression(s.kind, position, g.sups),
		owner: fn,
	}
	g.insts = append(g.insts, inst)
	fn.sources = append(fn.sources, inst.id)
}

// addCall resolves one call expression to graph edges: a static edge
// for direct calls to declared functions, over-approximated edge sets
// for interface-method and func-value calls (candidates restricted to
// the deterministic package set — see the soundness caveats in
// ARCHITECTURE.md).
func (g *flowGraph) addCall(fn *flowFunc, call *ast.CallExpr, info *types.Info) {
	fun := ast.Unparen(call.Fun)

	// Conversions and builtins are not calls the graph tracks.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	var callee *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			callee = obj
		case *types.Builtin, *types.TypeName, *types.Nil:
			return
		default:
			g.addDynamicByValue(fn, call, info)
			return
		}
	case *ast.SelectorExpr:
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			callee = obj
		case *types.TypeName:
			return
		default:
			g.addDynamicByValue(fn, call, info)
			return
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already inlined into
		// this scan; no edge needed.
		return
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Either a generic instantiation (resolved through the inner
		// expression's Uses) or an indexed func value.
		if id := instantiatedFunc(info, fun); id != nil {
			callee = id
		} else {
			g.addDynamicByValue(fn, call, info)
			return
		}
	default:
		g.addDynamicByValue(fn, call, info)
		return
	}

	key, dynamic, ok := funcKeyOf(callee)
	if dynamic {
		// Interface method: over-approximate with every deterministic
		// method of the same name and arity.
		g.addDynamicByMethod(fn, call, callee)
		return
	}
	if !ok {
		return
	}
	if target := g.funcs[key]; target != nil {
		g.appendCall(fn, call.Pos(), target, false)
	}
	// Unresolved keys are stdlib/external functions: opaque to the
	// graph. Their nondeterministic entry points are covered by the
	// source tables eachSource matches.
}

// instantiatedFunc resolves f[T](…) generic instantiations.
func instantiatedFunc(info *types.Info, fun ast.Expr) *types.Func {
	var x ast.Expr
	switch f := fun.(type) {
	case *ast.IndexExpr:
		x = f.X
	case *ast.IndexListExpr:
		x = f.X
	default:
		return nil
	}
	switch f := ast.Unparen(x).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// addDynamicByMethod adds edges for an interface-method call: every
// method in a deterministic package with the same name and arity is a
// candidate. Matching is deliberately name+arity (not types.Identical):
// the loader type-checks a package twice when it is both analyzed and
// imported, so cross-universe signature identity would silently miss
// implementations.
func (g *flowGraph) addDynamicByMethod(fn *flowFunc, call *ast.CallExpr, m *types.Func) {
	ar := arityOf(m)
	for _, cand := range g.methodIndex[m.Name()] {
		if cand.arity == ar {
			g.appendCall(fn, call.Pos(), cand, true)
		}
	}
}

// addDynamicByValue adds edges for a call through a func value: every
// address-taken deterministic-package function of the same arity is a
// candidate.
func (g *flowGraph) addDynamicByValue(fn *flowFunc, call *ast.CallExpr, info *types.Info) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	ar := [2]int{sig.Params().Len(), sig.Results().Len()}
	// Deterministic candidate iteration: addrTaken is a map, so gather
	// and sort keys first.
	keys := make([]string, 0, len(g.addrTaken))
	for k := range g.addrTaken {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		cand := g.addrTaken[FuncKey(k)]
		if cand.arity == ar {
			g.appendCall(fn, call.Pos(), cand, true)
		}
	}
}

func (g *flowGraph) appendCall(fn *flowFunc, pos token.Pos, callee *flowFunc, dynamic bool) {
	position := g.fset.Position(pos)
	fn.calls = append(fn.calls, flowCall{
		pos:     pos,
		callee:  callee,
		dynamic: dynamic,
		sup:     findSuppression(FlowName, position, g.sups),
	})
}

// findSuppression returns the suppression of the given analyzer kind
// covering pos (same line or the line directly above), if any.
func findSuppression(kind string, pos token.Position, sups []Suppression) *Suppression {
	for i := range sups {
		s := &sups[i]
		if s.Analyzer != kind || s.Pos.Filename != pos.Filename {
			continue
		}
		if s.Pos.Line == pos.Line || s.Pos.Line == pos.Line-1 {
			return s
		}
	}
	return nil
}
