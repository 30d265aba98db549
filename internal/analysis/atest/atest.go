// Package atest is an analysistest-style harness for the detlint
// analyzers: it loads GOPATH-layout fixture packages from a testdata
// directory, runs an analyzer over them with the same suppression
// filtering the real driver applies, and checks the surviving
// diagnostics against "// want" comments.
//
// Expectations are written on the line they refer to:
//
//	for k := range m { // want `range over map`
//
// The backquoted (or double-quoted) string is a regexp matched against
// the diagnostic message; several on one line mean several diagnostics.
// A fixture line that violates a contract but carries a
// //detlint:ignore suppression takes no want comment — the harness
// verifying "no diagnostic here" is exactly the accepted-suppression
// test the contracts require.
package atest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRE matches one quoted expectation after a "// want" marker.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads each fixture package (an import path under srcRoot) and
// applies the analyzer, comparing unsuppressed diagnostics against the
// fixtures' want comments.
//
//detlint:ignore unreached test support: the analyzers' tests run their fixtures through it
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := analysis.NewLoader("", "", srcRoot)
	for _, pkg := range pkgs {
		dir, ok := loader.LocalDir(pkg)
		if !ok {
			t.Errorf("fixture package %q not found under %s", pkg, srcRoot)
			continue
		}
		units, err := loader.LoadDir(pkg, dir)
		if err != nil {
			t.Errorf("load %s: %v", pkg, err)
			continue
		}
		for _, unit := range units {
			diags, _, errs := analysis.RunUnit(loader, unit, []*analysis.Analyzer{a})
			for _, err := range errs {
				t.Errorf("%s: suppression error: %v", pkg, err)
			}
			checkWants(t, loader.Fset, unit.Files, diags)
		}
	}
}

// RunFlow loads every listed fixture package as one multi-package tree,
// runs the detflow interprocedural analysis over all of them together,
// and compares its frontier diagnostics against the fixtures' want
// comments (collected across every loaded file). The Flow is returned
// so tests can additionally golden its certified-API report.
//
//detlint:ignore unreached test support: the detflow tests run their fixtures through it
func RunFlow(t *testing.T, srcRoot string, pkgs ...string) *analysis.Flow {
	t.Helper()
	loader := analysis.NewLoader("", "", srcRoot)
	var units []*analysis.Unit
	var sups []analysis.Suppression
	for _, pkg := range pkgs {
		dir, ok := loader.LocalDir(pkg)
		if !ok {
			t.Fatalf("fixture package %q not found under %s", pkg, srcRoot)
		}
		us, err := loader.LoadDir(pkg, dir)
		if err != nil {
			t.Fatalf("load %s: %v", pkg, err)
		}
		for _, unit := range us {
			s, errs := analysis.CollectSuppressions(loader.Fset, unit.Files, analysis.Known())
			for _, err := range errs {
				t.Errorf("%s: suppression error: %v", pkg, err)
			}
			sups = append(sups, s...)
			units = append(units, unit)
		}
	}
	flow := analysis.NewFlow(loader.Fset, units, srcRoot, sups)
	var files []*ast.File
	for _, unit := range units {
		files = append(files, unit.Files...)
	}
	checkWants(t, loader.Fset, files, flow.Diagnostics())
	return flow
}

// checkWants matches diagnostics against want comments line by line.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantRE.FindAllString(text[i+len("// want"):], -1) {
					var pat string
					var err error
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else if pat, err = strconv.Unquote(q); err != nil {
						t.Errorf("%s: bad want expectation %s: %v", pos, q, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					k := key{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}
