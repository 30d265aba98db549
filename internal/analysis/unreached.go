package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnreachedName is the analyzer name of detflow's reachability check: a
// function or method in a non-test file that no main function and no
// package initializer reaches. "//detlint:ignore unreached <reason>" on or
// directly above its func line keeps one on purpose; a kept function
// counts as reached, and so does everything it reaches.
const UnreachedName = "unreached"

// markReached sets reached on every declared function a root reaches.
// The roots are the main functions, what inits (the package-level var
// declarations and init functions of non-test files) reach, and the kept
// functions. Flow.Diagnostics reports the rest, provided the load has a
// main function: a library alone cannot say what its commands use.
//
// Code has an edge to every module function it references, called or used
// as a value; to every same-name, same-arity method of any loaded package
// for an interface method it references; and, for every type it uses, to
// the methods of that type some interface names. The last edge stands for
// the conversions to an interface a value of the type may meet, and the
// calls the stdlib makes through one (fmt's String, rand's Uint64): a
// method no interface names cannot be called that way.
func (g *flowGraph) markReached(units []*Unit, decls, inits []flowDecl) {
	// named holds every method name an interface of a loaded package, or
	// of a package one imports, declares (test files aside).
	named, seen := map[string]bool{}, map[*types.Package]bool{}
	var pkgs []*types.Package
	for _, unit := range units {
		if !strings.HasSuffix(unit.Name, "_test") {
			pkgs = append(pkgs, unit.Pkg)
		}
	}
	for ; len(pkgs) > 0; pkgs = pkgs[1:] {
		pkg := pkgs[0]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		pkgs = append(pkgs, pkg.Imports()...)
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && !isTestFilename(g.fset, obj.Pos()) {
				for i := 0; i < it.NumMethods(); i++ {
					named[it.Method(i).Name()] = true
				}
			}
		}
	}
	edges := func(info *types.Info, n ast.Node) (out []*flowFunc) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					out = append(out, g.reachRef(fn)...)
				}
			}
			if e, ok := n.(ast.Expr); ok {
				if t := info.TypeOf(e); t != nil && !types.IsInterface(t) {
					mset := types.NewMethodSet(t)
					for i := 0; i < mset.Len(); i++ {
						if fn := mset.At(i).Obj().(*types.Func); named[fn.Name()] {
							out = append(out, g.reachRef(fn)...)
						}
					}
				}
			}
			return true
		})
		return out
	}
	var roots []*flowFunc
	for _, du := range decls {
		du.fn.reach = edges(du.unit.Info, du.decl.Body)
		main := du.unit.Name == "main" && isFunc(du.decl, "main")
		g.hasMain = g.hasMain || main
		if main || findSuppression(UnreachedName, du.fn.pos, g.sups) != nil {
			roots = append(roots, du.fn)
		}
	}
	for _, du := range inits {
		roots = append(roots, edges(du.unit.Info, du.init)...)
	}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if fn != nil && !fn.reached {
			fn.reached = true
			roots = append(roots, fn.reach...)
		}
	}
}

// isFunc reports whether d declares the plain function name.
func isFunc(d ast.Decl, name string) bool {
	fd, ok := d.(*ast.FuncDecl)
	return ok && fd.Recv == nil && fd.Name.Name == name
}

// reachRef returns the functions one reference to fn reaches: fn itself,
// or for an interface method every declared method of its name and arity.
func (g *flowGraph) reachRef(fn *types.Func) (out []*flowFunc) {
	key, dynamic, _ := funcKeyOf(fn)
	if !dynamic {
		return []*flowFunc{g.funcs[key]}
	}
	for _, cand := range g.methodIndex[fn.Name()] {
		if cand.arity == arityOf(fn) {
			out = append(out, cand)
		}
	}
	return out
}
