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

// TestGolden pins fdmon's whole observable surface — exit code, stdout,
// stderr — on its two default runs and on the inputs it must reject with
// a named error: ℓ > n used to panic in ident.Balanced, a crash PID ≥ n
// died with an index out of range in the synchronous engine. A deliberate
// change regenerates the files with `go test ./cmd/fdmon -update`.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args string
	}{
		{"default_ohp", ""},
		{"default_hsigma", "-detector hsigma"},
		{"l_above_n", "-n 3 -l 5"},
		{"hsigma_crash_pid_out_of_range", "-detector hsigma -crashes 9:2"},
		{"hsigma_crash_after_last_step", "-detector hsigma -steps 12"},
		{"bad_crash_spec", "-crashes garbage"},
		{"unknown_detector", "-detector bogus"},
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
				t.Errorf("fdmon %s differs from golden:\n--- want ---\n%s\n--- got ---\n%s", tc.args, want, got)
			}
		})
	}
}
