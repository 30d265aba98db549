package analysis_test

import (
	"go/token"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atest"
)

func position(file string, line, col int) token.Position {
	return token.Position{Filename: file, Line: line, Column: col}
}

// TestDetflow checks the interprocedural frontier diagnostics against
// the laundering fixtures' want comments: a helper in the same
// deterministic package surfaces the taint at its own boundary call,
// a helper in an exempt package surfaces it at the deterministic-side
// call with the full chain, and both suppression shapes (leaf-level
// kill, call-site vetting) silence the respective findings.
func TestDetflow(t *testing.T) {
	atest.RunFlow(t, "testdata/src", "detflow/sim", "detflow/cliutil")
}

// TestUnreached checks the reachability diagnostics against the fixture's
// want comments: a function called only from a _test.go file and a method
// no interface names are reported; a method reached through a module
// interface (on a type main uses, and through a call on a type parameter
// whose type argument main never names), a String reached through fmt, a
// function passed as a value, one called from a package-level var
// initializer, and one kept by //detlint:ignore unreached (with its
// callee) are not.
func TestUnreached(t *testing.T) {
	atest.RunFlow(t, "testdata/src", "unreached/app", "unreached/lib")
}

// TestUnreachedNeedsMain loads a package whose function has no caller,
// and no main package: the check has no roots and reports nothing.
func TestUnreachedNeedsMain(t *testing.T) {
	atest.RunFlow(t, "testdata/src", "unreached/nomain")
}

// TestDetflowReport goldens the certified-deterministic API report over
// the fixture tree and pins its byte stability: two independent loads
// and fixpoints must render identical bytes, and those bytes must match
// the checked-in golden.
func TestDetflowReport(t *testing.T) {
	first := atest.RunFlow(t, "testdata/src", "detflow/sim", "detflow/cliutil").Report()
	second := atest.RunFlow(t, "testdata/src", "detflow/sim", "detflow/cliutil").Report()
	if first != second {
		t.Fatalf("report is not byte-stable across runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	golden, err := os.ReadFile("testdata/detflow_report.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if first != string(golden) {
		t.Errorf("report differs from testdata/detflow_report.golden:\n--- got ---\n%s", first)
	}
}

// TestDiagnosticsJSON pins the -json output shape and byte stability:
// the array is sorted, the field order is fixed, and the empty set
// renders as [] rather than null.
func TestDiagnosticsJSON(t *testing.T) {
	diags := []analysis.Diagnostic{
		{Analyzer: "wallclock", Pos: position("b.go", 9, 2), Message: "time.Now reads the wall clock"},
		{Analyzer: "maprange", Pos: position("a.go", 4, 7), Message: `range over map m <"quoted">`},
	}
	want := `[
  {
    "analyzer": "maprange",
    "file": "a.go",
    "line": 4,
    "col": 7,
    "message": "range over map m <\"quoted\">"
  },
  {
    "analyzer": "wallclock",
    "file": "b.go",
    "line": 9,
    "col": 2,
    "message": "time.Now reads the wall clock"
  }
]
`
	if got := string(analysis.DiagnosticsJSON(diags)); got != want {
		t.Errorf("DiagnosticsJSON:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if again := string(analysis.DiagnosticsJSON(diags)); again != string(analysis.DiagnosticsJSON(diags)) || again == "" {
		t.Errorf("DiagnosticsJSON is not byte-stable")
	}
	if got := string(analysis.DiagnosticsJSON(nil)); got != "[]\n" {
		t.Errorf("empty set renders %q, want %q", got, "[]\n")
	}
}
