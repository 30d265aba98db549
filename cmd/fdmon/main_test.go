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
// stderr — on its two default runs, on the zero values that select a
// default (the report prints the horizon and step count the run used), and
// on the inputs it must reject with a named error: ℓ > n used to panic in
// ident.Balanced, a crash PID ≥ n died with an index out of range in the
// synchronous engine, and a negative -gst, -delta or -horizon used to run
// and verify. A deliberate change regenerates the files with
// `go test ./cmd/fdmon -update`.
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
		{"negative_gst", "-gst -10"},
		{"negative_delta", "-delta -2"},
		{"negative_horizon", "-horizon -5"},
		{"negative_steps", "-detector hsigma -steps -3"},
		{"delta_zero", "-delta 0"},
		{"horizon_zero", "-horizon 0"},
		{"hsigma_steps_zero", "-detector hsigma -steps 0 -crashes="},
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

// TestZeroMeansDefault holds the defaults fdmon states in its report to the
// runs': a zero -horizon or -steps must run exactly what the stated value
// runs.
func TestZeroMeansDefault(t *testing.T) {
	for _, pair := range [][2]string{
		{"-horizon 0", "-horizon 5000"},
		{"-detector hsigma -steps 0 -crashes=", "-detector hsigma -steps 12 -crashes="},
	} {
		var zero, stated, stderr bytes.Buffer
		if code := run(strings.Fields(pair[0]), &zero, &stderr); code != 0 {
			t.Fatalf("fdmon %s: exit %d: %s", pair[0], code, stderr.String())
		}
		if code := run(strings.Fields(pair[1]), &stated, &stderr); code != 0 {
			t.Fatalf("fdmon %s: exit %d: %s", pair[1], code, stderr.String())
		}
		if zero.String() != stated.String() {
			t.Errorf("fdmon %s differs from fdmon %s:\n%s\n---\n%s", pair[0], pair[1], zero.String(), stated.String())
		}
	}
}
