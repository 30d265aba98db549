package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const corpus = "../../internal/hunt/testdata/corpus"

// huntCmd runs the driver in-process and returns what a shell would see.
func huntCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return o.String(), e.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGolden pins the hunter's stdout across commits. The files under
// testdata/golden are the verbatim stdout of the command lines below,
// captured at commit 1ec22b8 before Fig. 9's quorum guard was touched (CI
// diffs a budget-120 campaign log against budget120_seed1.txt directly):
// a campaign log names every coverage class in discovery order, so any
// behavioural drift in core, sim, the oracles or the mutator moves it. A
// deliberate change regenerates them with `hunt <args> > <file>`.
func TestGolden(t *testing.T) {
	cases := []struct {
		name, args string
		code       int
		long       bool
	}{
		{"budget30_seed1", "-budget 30 -seed 1 -workers 2", 0, false},
		{"budget120_seed1", "-budget 120 -seed 1", 0, true},
		{"replay_corpus", "-replay " + corpus, 0, false},
		{"run_leader_wedge_min", "-run " + corpus + "/leader-wedge-min.json", 0, false},
		{"run_partition_coordinator", "-run " + corpus + "/partition-coordinator.json", 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("budget-120 campaign skipped under -short")
			}
			stdout, stderr, code := huntCmd(t, strings.Fields(tc.args)...)
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if want := golden(t, tc.name); stdout != want {
				t.Errorf("stdout differs from golden:\n--- want ---\n%s--- got ---\n%s", want, stdout)
			}
		})
	}
}

// TestWorkersIdentity: a batch starts its longest scenarios first
// (Scenario.runCost), and the campaign log still comes out in input
// order, the golden's, at one, two and four workers.
func TestWorkersIdentity(t *testing.T) {
	want := golden(t, "budget30_seed1")
	for _, w := range []string{"1", "2", "4"} {
		stdout, stderr, code := huntCmd(t, "-budget", "30", "-seed", "1", "-workers", w)
		if code != 0 || stdout != want {
			t.Errorf("-workers %s: exit %d (stderr %q), stdout differs from budget30_seed1: %t", w, code, stderr, stdout != want)
		}
	}
}

// TestReplayDrift: a corpus entry whose pinned verdict no longer matches
// is named on stdout, counted on stderr, and exits 1 — after every other
// entry was still replayed.
func TestReplayDrift(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"leader-wedge-min.json", "quorum-split-crashes.json"} {
		b, err := os.ReadFile(filepath.Join(corpus, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "leader-wedge-min.json" {
			b = bytes.Replace(b, []byte("PASS rounds=1 deciders=3"), []byte("PASS rounds=9 deciders=3"), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stdout, stderr, code := huntCmd(t, "-replay", dir)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	for _, want := range []string{"✗ leader-wedge-min\n", "want: PASS rounds=9", "got:  PASS rounds=1", "✓ quorum-split-crashes — "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout %q: want %q", stdout, want)
		}
	}
	if !strings.Contains(stderr, "1 corpus entries drifted") {
		t.Errorf("stderr %q: want the drift count", stderr)
	}
}

// TestExitCodes: usage errors exit 2, unreadable input exits 1 with a
// named error, and neither prints anything on stdout.
func TestExitCodes(t *testing.T) {
	empty := t.TempDir()
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"unknown flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"missing corpus", []string{"-replay", filepath.Join(empty, "nope")}, 1, "hunt: "},
		{"empty corpus", []string{"-replay", empty}, 1, "no corpus entries"},
		{"missing scenario", []string{"-run", filepath.Join(empty, "nope.json")}, 1, "hunt: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := huntCmd(t, tc.args...)
			if code != tc.code || stdout != "" {
				t.Errorf("exit %d, stdout %q: want exit %d and no output", code, stdout, tc.code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q: want %q", stderr, tc.want)
			}
		})
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a non-empty
// file behind — on the exit-1 path too — and change nothing on stdout.
func TestProfileFlags(t *testing.T) {
	for _, tc := range [][2]string{
		{"leader-wedge-min.json", "run_leader_wedge_min"},
		{"partition-coordinator.json", "run_partition_coordinator"}, // exit 1
	} {
		entry, name := tc[0], tc[1]
		tmp := t.TempDir()
		cpu, mem := filepath.Join(tmp, "cpu.pprof"), filepath.Join(tmp, "mem.pprof")
		stdout, _, _ := huntCmd(t, "-run", filepath.Join(corpus, entry), "-cpuprofile", cpu, "-memprofile", mem)
		if want := golden(t, name); stdout != want {
			t.Errorf("stdout changed under the profile flags:\n--- want ---\n%s--- got ---\n%s", want, stdout)
		}
		for _, path := range []string{cpu, mem} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%s: %s: want a non-empty profile (stat: %v)", entry, filepath.Base(path), err)
			}
		}
	}
}
