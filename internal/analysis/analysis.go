package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one determinism contract, encoded as a check over a
// type-checked package unit. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite can migrate onto the
// upstream framework wholesale if the dependency ever becomes available;
// the subset implemented here (name, doc, Run over a Pass) is all the
// eight detlint analyzers need.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//detlint:ignore <name> <reason>" suppression comments.
	Name string

	// Doc is a short description, shown by "detlint -help".
	Doc string

	// Run executes the analyzer over one package unit, reporting
	// findings through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package unit (a package's build files, a
// package merged with its in-package test files, or an external _test
// package) through an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// PkgPath is the import path of the *directory* under analysis: an
	// external test package "foo_test" reports its base package's path,
	// so the deterministic-package classification is per directory.
	PkgPath string

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Sources whose
// contract allowlists test code (wallclock: test deadlines are legitimate)
// gate on this.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return isTestFilename(p.Fset, pos)
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// SortDiagnostics orders diagnostics by file, line, column, then analyzer
// name, so driver output is stable across runs and package load order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// deterministicSegments names the packages bound by the repo's determinism
// contracts (ARCHITECTURE.md): everything these packages emit — traces,
// digests, tables, verdicts — must be a pure function of (Config, seed).
// cliutil, ident and hruntime are deliberately absent: cliutil and ident
// sit outside the replay path's output surface, and hruntime is the
// real-clock goroutine runtime whose whole point is wall time.
var deterministicSegments = map[string]bool{
	"sim":         true,
	"core":        true,
	"fd":          true,
	"check":       true,
	"sweep":       true,
	"campaign":    true,
	"trace":       true,
	"replay":      true,
	"experiments": true,
	"multiset":    true,
	"reduce":      true,
	"hunt":        true,
	"scenario":    true,
}

// IsDeterministic reports whether the package at the given import path is
// bound by the determinism contracts. A path qualifies when any path
// segment names a contract-bound package (so internal/fd's subpackages —
// fd/ohp, fd/oracle, … — inherit fd's contract), except when that segment
// directly follows "cmd": the CLI mains (cmd/experiments, …) are drivers,
// not contract-bound libraries. The module root ("repro", the hds runner
// layer) is bound too: runner iteration order feeds the engine's FIFO
// tie-break sequence, so a map range there lands directly in trace bytes.
func IsDeterministic(pkgPath string) bool {
	if pkgPath == "repro" {
		return true
	}
	segs := strings.Split(pkgPath, "/")
	for i, s := range segs {
		if deterministicSegments[s] && (i == 0 || segs[i-1] != "cmd") {
			return true
		}
	}
	return false
}

// hasSegment reports whether any path segment of pkgPath equals seg.
// Package-scoped exemptions (carveOuts) match by segment so fixture
// packages ("unsortedgo/sweep") and hypothetical subpackages inherit the
// exemption, mirroring how IsDeterministic classifies.
func hasSegment(pkgPath, seg string) bool {
	for _, s := range strings.Split(pkgPath, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
