package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current behaviour")

// threeTables selects a Figure 8 table, a Figure 9 table and the
// churn-consensus table: 23 scenarios, well under a second together.
const threeTables = "-only E9,E10,E20"

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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
		t.Errorf("differs from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// runClean runs the command and requires exit 0 with nothing on stderr;
// it returns stdout.
func runClean(t *testing.T, args string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(args), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("experiments %s: exit %d, stderr %q", args, code, stderr.String())
	}
	return stdout.String()
}

// TestTablesGolden pins the command's stdout across commits and worker
// counts: testdata/golden/E9_E10_E20.md is the verbatim stdout of the
// binary built before run() existed, and the serial and the parallel run
// must both still print it.
func TestTablesGolden(t *testing.T) {
	for _, workers := range []string{"1", "4"} {
		golden(t, "E9_E10_E20.md", runClean(t, threeTables+" -workers "+workers))
	}
}

// TestRejected pins exit code, stdout and stderr of the command lines the
// command must refuse before printing any table.
func TestRejected(t *testing.T) {
	cases := []struct{ name, args string }{
		{"unknown_id", "-only E99"},
		{"shard_without_dir", "-shards 2 -shard 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(tc.args), &stdout, &stderr)
			golden(t, tc.name+".txt",
				fmt.Sprintf("exit %d\n--- stdout ---\n%s--- stderr ---\n%s", code, stdout.String(), stderr.String()))
		})
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-frobnicate"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("unknown flag: exit %d, stdout %q; want exit 2 and no stdout", code, stdout.String())
	}
}

// TestResumeRerunsOnlyTheDamagedShard: a three-shard run leaves nine
// checkpoints; one is cut mid-file, as a kill during the write would
// leave it if the write were not atomic. -resume must print the serial
// tables and replace that file alone. A re-run shard is renamed into
// place, so an untouched checkpoint is still the same file afterwards.
func TestResumeRerunsOnlyTheDamagedShard(t *testing.T) {
	dir := t.TempDir()
	sharded := threeTables + " -workers 2 -shards 3 -checkpoint-dir " + dir
	golden(t, "E9_E10_E20.md", runClean(t, sharded))

	before := map[string]os.FileInfo{}
	for _, id := range []string{"E9", "E10", "E20"} {
		for s := 0; s < 3; s++ {
			path := campaign.ShardPath(dir, id, 3, s)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			before[path] = info
		}
	}
	damaged := campaign.ShardPath(dir, "E10", 3, 1)
	if err := os.Truncate(damaged, before[damaged].Size()/2); err != nil {
		t.Fatal(err)
	}

	golden(t, "E9_E10_E20.md", runClean(t, sharded+" -resume"))
	for path, was := range before {
		now, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if rewritten := !os.SameFile(was, now); rewritten != (path == damaged) {
			t.Errorf("%s: rewritten = %v, want %v", filepath.Base(path), rewritten, path == damaged)
		}
	}
}
