package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current behaviour")

// hdsim runs the driver in-process and returns what a shell would see:
// stdout followed by an "exit N" line. The temp dir is spelled $TMP so
// the echoed -trace path is stable.
func hdsim(t *testing.T, tmp string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Logf("hdsim %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return strings.ReplaceAll(stdout.String(), tmp, "$TMP") + fmt.Sprintf("exit %d\n", code)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
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
		t.Errorf("%s differs from golden:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// grid is one command line per (algorithm, fault input, network source)
// shape the driver accepts. Traced cases also record a binary trace, pin
// its bytes by digest, and pin the -replay report of that trace.
var grid = []struct {
	name   string
	args   string
	traced bool
}{
	{"fig8_oracle", "-algo fig8 -n 5 -l 2 -t 2 -crashes 1:40,3:60", true},
	{"fig8_mp", "-algo fig8 -detectors mp -gst 80 -delta 3 -crashes 0:50", true},
	{"fig8_churn", "-algo fig8 -n 5 -l 2 -t 2 -churn 0.3:1:60", true},
	{"fig8_mp_churn", "-algo fig8 -n 5 -l 3 -t 2 -detectors mp -gst 100 -delta 4 -churn 0.3:1:60", true},
	{"fig8_churn_crashes", "-algo fig8 -n 7 -l 3 -t 3 -churn 0.2:1:40 -crashes 6:70", true},
	{"fig9", "-algo fig9 -n 6 -l 3 -crashes 0:20,1:40,2:60,3:80", true},
	{"fig9_churn", "-algo fig9 -n 6 -l 3 -churn 0.34:2:40:50", true},
	{"fig9_partition", "-algo fig9 -n 4 -l 2 -partition 0-120@2 -adversary split -stabilize 150", true},
	{"fig9anon", "-algo fig9-anon -n 4 -l 1 -adversary none", true},
	{"fig9anon_churn", "-algo fig9-anon -n 5 -l 1 -churn 0.2:1:35", true},
	{"ohp_default_net", "-algo ohp -crashes 1:100,4:200", true},
	{"ohp_delta0", "-algo ohp -delta 0 -crashes 1:100", true},
	{"ohp_net", "-algo ohp -n 6 -l 3 -crashes 1:30 -net lognormal:0.7:15 -horizon 12000", true},
	{"ohp_gst", "-algo ohp -gst 50 -delta 4 -crashes 2:150", true},
	{"ohp_churn", "-algo ohp -n 12 -l 4 -churn 0.25:2:40:60", true},
	{"ohp_churn_net", "-algo ohp -n 5 -l 2 -churn 0.4:1 -net psync:0:2", true},
	{"heartbeat", "-algo heartbeat -n 200 -l 10 -beaters 10 -churn 0.1:1:12:20:0 -horizon 60", true},
	{"heartbeat_lossy", "-algo heartbeat -n 40 -l 4 -churn 0.3:1 -net lossy:0.2:6 -period 15 -beaters 5", true},
	{"sweep_fig8", "-algo fig8 -n 5 -l 2 -t 2 -crashes 3:40 -gst 60 -seeds 4 -workers 2", false},
	{"sweep_fig9_churn", "-algo fig9 -n 6 -l 3 -churn 0.34:1:60 -seeds 4 -workers 1", false},
	{"fail_termination", "-algo fig8 -n 5 -l 2 -t 2 -crashes 0:10,1:10,2:10 -horizon 2000", true},
}

func TestGolden(t *testing.T) {
	for _, tc := range grid {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			args := strings.Fields(tc.args)
			if !tc.traced {
				checkGolden(t, tc.name, hdsim(t, tmp, args...))
				return
			}
			bin := filepath.Join(tmp, "run.bin")
			live := hdsim(t, tmp, append(args, "-trace", bin, "-trace-format", "binary")...)
			data, err := os.ReadFile(bin)
			if err != nil {
				t.Fatal(err)
			}
			live += fmt.Sprintf("trace sha256 %x\n", sha256.Sum256(data))
			checkGolden(t, tc.name, live)
			checkGolden(t, tc.name+".replay", hdsim(t, tmp, "-replay", bin))
		})
	}
}

// TestGoldenTextTrace pins the canonical text rendering of a full trace.
func TestGoldenTextTrace(t *testing.T) {
	tmp := t.TempDir()
	txt := filepath.Join(tmp, "run.txt")
	out := hdsim(t, tmp, "-algo", "fig9", "-n", "4", "-l", "2", "-crashes", "1:30", "-trace", txt, "-trace-buf", "7")
	data, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "text_trace", out+fmt.Sprintf("trace sha256 %x\n", sha256.Sum256(data)))
}

// TestGoldenMaxEvents: -max-events reaches the consensus runners too, not
// only heartbeat's — a run it truncates fails with the named guard error
// (stderr is part of this golden) instead of deciding under the default cap.
func TestGoldenMaxEvents(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields("-algo fig8 -n 5 -l 2 -t 2 -max-events 3"), &stdout, &stderr)
	checkGolden(t, "fig8_maxevents", stdout.String()+stderr.String()+fmt.Sprintf("exit %d\n", code))
}

// TestGoldenSignRejections: a negative time or count, and a sweep of no
// seeds, is a named error before the header, never a default the header
// does not show (stdout, stderr and the exit code are the golden).
func TestGoldenSignRejections(t *testing.T) {
	for name, args := range map[string]string{
		"reject_period":         "-algo heartbeat -n 20 -l 4 -period -5",
		"reject_horizon":        "-horizon -7",
		"reject_stabilize":      "-stabilize -7",
		"reject_gst":            "-gst -1",
		"reject_delta":          "-delta -3",
		"reject_seeds_zero":     "-seeds 0",
		"reject_seeds_negative": "-seeds -2",
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		checkGolden(t, name, stdout.String()+stderr.String()+fmt.Sprintf("exit %d\n", code))
	}
}

// TestHeartbeatHeaderPrintsPeriodUsed: -period 0 selects the default, and
// the header names it instead of echoing the 0.
func TestHeartbeatHeaderPrintsPeriodUsed(t *testing.T) {
	out := hdsim(t, t.TempDir(), strings.Fields("-algo heartbeat -n 20 -l 4 -period 0")...)
	if !strings.Contains(out, " period=10 ") || !strings.HasSuffix(out, "exit 0\n") {
		t.Errorf("want period=10 in the header of a verified run, got:\n%s", out)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile each leave a non-empty
// file behind and change nothing on stdout.
func TestProfileFlags(t *testing.T) {
	tmp := t.TempDir()
	args := strings.Fields(grid[0].args)
	plain := hdsim(t, tmp, args...)
	cpu, mem := filepath.Join(tmp, "cpu.pprof"), filepath.Join(tmp, "mem.pprof")
	if got := hdsim(t, tmp, append(args, "-cpuprofile", cpu, "-memprofile", mem)...); got != plain {
		t.Errorf("stdout changed under the profile flags:\n--- plain ---\n%s--- profiled ---\n%s", plain, got)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (stat: %v)", filepath.Base(path), err)
		}
	}
}

// TestRejectsBeforeOutput is the fail-closed contract of the command line:
// every value scenario.Resolve rejects exits 1 with a named error before a
// header is printed and before the -trace file is created or truncated.
func TestRejectsBeforeOutput(t *testing.T) {
	cases := []struct{ name, args, want string }{
		{"n zero", "-n 0", "n=0"},
		{"l above n", "-n 3 -l 5", "l=5 outside [1, n=3]"},
		{"unknown algo", "-algo bogus", `unknown algorithm "bogus"`},
		{"unknown adversary", "-adversary bogus", `unknown adversary "bogus"`},
		{"unknown detectors", "-detectors bogus", `unknown detector source "bogus"`},
		{"mp under fig9", "-algo fig9 -detectors mp", "fig8 only"},
		{"partition cut at n", "-partition 0-10@5", "does not split n=5"},
		{"heartbeat with crashes", "-algo heartbeat -crashes 1:5", "not -crashes"},
		{"ohp crashes and churn", "-algo ohp -crashes 1:5 -churn 0.3:1", "either -churn or -crashes"},
		{"bad crashes", "-crashes garbage", "bad crash spec"},
		{"bad net", "-net warp:9", `unknown network "warp"`},
		{"negative max-events", "-max-events -3", "max-events=-3"},
		{"negative period", "-algo heartbeat -period -5", "period=-5"},
		{"no seeds", "-seeds 0", "-seeds 0, want >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			txt := filepath.Join(t.TempDir(), "run.txt")
			if err := os.WriteFile(txt, []byte("keep"), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := run(append(strings.Fields(tc.args), "-trace", txt), &stdout, &stderr)
			if code != 1 || stdout.Len() != 0 {
				t.Errorf("exit %d, stdout %q: want exit 1 and no output", code, stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q: want %q", stderr.String(), tc.want)
			}
			if kept, _ := os.ReadFile(txt); string(kept) != "keep" {
				t.Errorf("-trace file was truncated before the scenario was validated: %q", kept)
			}
		})
	}
}

// TestReplayRejectsHostileMetadata: a trace's metadata block is outside
// input too — the same rejections must hold through -replay, where
// ident.Balanced used to panic.
func TestReplayRejectsHostileMetadata(t *testing.T) {
	for name, m := range map[string]*trace.Meta{
		"l above n":              {Algo: "fig8", N: 3, L: 5},
		"partition cut at n":     {Algo: "fig9", N: 4, L: 2, Partitions: "0-10@4"},
		"heartbeat with crashes": {Algo: "heartbeat", N: 4, L: 2, Crashes: "1:5"},
		"ohp crashes and churn":  {Algo: "ohp", N: 4, L: 2, Crashes: "1:5", Churn: "0.3:1"},
	} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), "hostile.bin")
			f, err := os.Create(bin)
			if err != nil {
				t.Fatal(err)
			}
			sink := trace.NewBinarySink(f)
			sink.SetMeta(m)
			if err := sink.Spill([]trace.Event{{Kind: trace.KindCrash}}); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-replay", bin}, &stdout, &stderr); code != 1 || stdout.Len() != 0 {
				t.Errorf("exit %d, stdout %q: want exit 1 and no output", code, stdout.String())
			}
			if !strings.Contains(stderr.String(), "scenario: ") {
				t.Errorf("stderr %q: want a scenario: error", stderr.String())
			}
		})
	}
}
