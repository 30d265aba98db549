package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench/spec"
)

// atRepoRoot moves the test to the repository root, where the benchmark
// runs, and back.
func atRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestQuickEndToEnd builds the CLIs and drives every workload and every
// probe once at toy sizes: the whole pipeline, in seconds.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	atRepoRoot(t)
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-quick", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quick || res.opsFailed() != 0 || len(res.LayerFailures) != 0 {
		t.Errorf("quick run: quick=%v failed=%d layer failures=%v", res.Quick, res.opsFailed(), res.LayerFailures)
	}
	for _, w := range spec.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil || wr.OpsAttempted != 1 || wr.WorkUnits == 0 || wr.OutputSHA256 == "" {
			t.Errorf("%s: %+v", w.Name, wr)
			continue
		}
		for _, m := range spec.EndToEnd {
			s, ok := wr.Metrics[m.Name]
			if !ok || s.N != 1 || (s.Median <= 0 && m.Name != spec.SetupS) {
				t.Errorf("%s %s: %+v", w.Name, m.Name, s)
			}
			if !strings.Contains(stdout.String(), m.Name) {
				t.Errorf("report does not print %s", m.Name)
			}
		}
	}
	for _, m := range spec.Layers {
		v, ok := res.Layers[m.Name]
		if ok == m.Full {
			t.Errorf("%s: present=%v, full-only=%v", m.Name, ok, m.Full)
		}
		if ok && (v.Unit != m.Unit || v.Exact != m.Exact) {
			t.Errorf("%s: %+v", m.Name, v)
		}
	}
	if _, err := os.Stat(filepath.Join(outDir, "spans.json")); err != nil {
		t.Errorf("no spans written: %v", err)
	}
}

// TestQuickContractLine checks the one-line result of the driver's
// contract in both its forms.
func TestQuickContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	atRepoRoot(t)
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "--workload", "replay20k", "--seed", "3", "--seconds", "1", "--trace", traced}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", traced, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", traced, err)
		}
		if got := strings.Join(sortedKeys(keys), " "); got != "attempted correct failed metrics" {
			t.Errorf("trace %s: keys %q", traced, got)
		}
		var line contractOut
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", traced, line)
		}
		var want []string
		if traced == "0" {
			for _, m := range spec.EndToEnd {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range spec.Layers {
				if !m.Full {
					want = append(want, m.Name)
				}
			}
		}
		for _, name := range want {
			if _, ok := line.Metrics[name]; !ok {
				t.Errorf("trace %s: no %s in the result line", traced, name)
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-quick", "--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
