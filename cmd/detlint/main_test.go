package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current behaviour")

// TestGolden pins detlint's whole observable surface — exit code, stdout,
// stderr — on the command lines CI runs and on the ones it must reject.
// Package patterns are resolved against the module root, whatever the
// working directory. The whole tree is clean under -flow (the CI lint
// step); the listings run over internal/multiset, whose suppressions are
// few and stable, and over the unreached fixture, whose one suppression
// keeps a function no main reaches; the JSON case lints a wall-clock
// fixture, so its diagnostics and exit 1 are pinned too. A deliberate change regenerates
// the files with `go test ./cmd/detlint -update`.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args string
	}{
		{"clean_tree", "-flow ./..."},
		{"ignores", "-ignores ./internal/multiset"},
		{"ignores_unreached", "-ignores ./internal/analysis/testdata/src/unreached/lib"},
		{"flow_report", "-flow -report ./internal/multiset"},
		{"json", "-json ./internal/analysis/testdata/src/wallclock/sim"},
		{"report_without_flow", "-report ./internal/multiset"},
		{"unknown_flag", "-frobnicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(tc.args), &stdout, &stderr)
			got := fmt.Sprintf("exit %d\n--- stdout ---\n%s--- stderr ---\n%s", code, stdout.String(), stderr.String())
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("detlint %s differs from golden:\n--- want ---\n%s\n--- got ---\n%s", tc.args, want, got)
			}
		})
	}
}
