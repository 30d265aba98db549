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
	// -delta 0 means 3 on every PartialSync the resolver builds, GST or
	// not: it used to reach the network as 0 here and run its own δ = 5.
	{"ohp_gst_delta0", "-algo ohp -gst 50 -delta 0 -crashes 1:100", true},
	{"ohp_churn", "-algo ohp -n 12 -l 4 -churn 0.25:2:40:60", true},
	{"ohp_churn_net", "-algo ohp -n 5 -l 2 -churn 0.4:1 -net psync:0:2", true},
	{"heartbeat", "-algo heartbeat -n 200 -l 10 -beaters 10 -churn 0.1:1:12:20:0 -horizon 60", true},
	// The heartbeat run again, spilled seven events at a time: frames then
	// span Spill calls, and the trace must not notice (TestTraceBufIdentity).
	{"heartbeat_buf7", "-algo heartbeat -n 200 -l 10 -beaters 10 -churn 0.1:1:12:20:0 -horizon 60 -trace-buf 7", true},
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

// TestTraceBufIdentity: the spill batch size is not part of the trace.
// The heartbeat run spilled seven events at a time, which puts frame
// boundaries inside Spill calls and Spill boundaries inside frames, pins
// the same trace digest as the default batch.
func TestTraceBufIdentity(t *testing.T) {
	digest := func(name string) string {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "trace sha256 ") {
				return line
			}
		}
		t.Fatalf("%s golden has no trace sha256 line", name)
		return ""
	}
	if got, want := digest("heartbeat_buf7"), digest("heartbeat"); got != want {
		t.Errorf("-trace-buf 7 golden has %q, the default batch's has %q", got, want)
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

// TestGoldenCrashAfterHorizon: a crash-stop crash at or past the horizon
// never happens in the run, so the scenario is rejected with the schedule-
// vs-horizon error, as an input error before the header, instead of being
// judged against a ground truth that counts the process as crashed
// (stdout, stderr and the exit code are the golden).
func TestGoldenCrashAfterHorizon(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields("-algo ohp -n 5 -l 2 -crashes 1:9000"), &stdout, &stderr)
	checkGolden(t, "reject_crash_after_horizon", stdout.String()+stderr.String()+fmt.Sprintf("exit %d\n", code))
}

// TestCrashAfterHorizonLeavesNoTrace: the rejection comes before -trace
// opens its file, so none is left behind — for a crash past the horizon,
// a crash PID outside [0, n) and a fig8 t outside [0, n/2) alike.
func TestCrashAfterHorizonLeavesNoTrace(t *testing.T) {
	for _, args := range []string{
		"-algo ohp -n 5 -l 2 -crashes 1:9000",
		"-algo fig9 -n 5 -l 2 -crashes 9:10",
		"-algo fig8 -n 5 -l 2 -t 3",
	} {
		path := filepath.Join(t.TempDir(), "x.bin")
		var stdout, stderr bytes.Buffer
		if code := run(append(strings.Fields(args), "-trace", path, "-trace-format", "binary"), &stdout, &stderr); code != 1 || stdout.Len() != 0 {
			t.Fatalf("%s: exit %d, want 1 and no output:\n%s%s", args, code, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: a rejected scenario left %s behind (stat: %v)", args, path, err)
		}
	}
}

// TestSweepResumeMaxEvents: -max-events is part of a sweep's campaign id,
// so a -resume without the cap runs its seeds afresh instead of reusing
// the rows the cap truncated.
func TestSweepResumeMaxEvents(t *testing.T) {
	args := []string{"-algo", "fig8", "-n", "5", "-l", "2", "-seeds", "4", "-workers", "1", "-checkpoint-dir", filepath.Join(t.TempDir(), "ck")}
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-max-events", "50"), &stdout, &stderr)
	if n := strings.Count(stdout.String(), "run truncated by the MaxEvents guard"); code != 1 || n != 4 {
		t.Fatalf("capped sweep: exit %d with %d truncated rows, want exit 1 and 4:\n%s%s", code, n, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-resume"), &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "verified 4/4 runs") {
		t.Errorf("resumed sweep without the cap: exit %d, want exit 0 and 4/4 verified:\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestGoldenSignRejections: a negative time or count, a non-finite float
// parameter, a sweep of no seeds, a crash PID outside [0, n) and a fig8 t
// outside [0, n/2) are each a named error before the header, never a
// default the header does not show, a NaN the run compares against or a
// failure after the header; so is an explicit -gst or -delta beside -net,
// which the network spec would override without a word (stdout, stderr
// and the exit code are the golden).
func TestGoldenSignRejections(t *testing.T) {
	for name, args := range map[string]string{
		"reject_period":         "-algo heartbeat -n 20 -l 4 -period -5",
		"reject_horizon":        "-horizon -7",
		"reject_stabilize":      "-stabilize -7",
		"reject_gst":            "-gst -1",
		"reject_delta":          "-delta -3",
		"reject_seeds_zero":     "-seeds 0",
		"reject_seeds_negative": "-seeds -2",
		"reject_lossy_nan":      "-algo fig9 -n 6 -l 3 -net lossy:NaN",
		"reject_pareto_nan":     "-algo fig9 -n 6 -l 3 -net pareto:NaN",
		"reject_lognormal_inf":  "-algo fig9 -n 6 -l 3 -net lognormal:+Inf",
		"reject_churn_nan":      "-algo fig9 -n 6 -l 3 -churn NaN",
		"reject_trace_buf_huge": "-algo fig9 -n 4 -l 2 -trace x.bin -trace-format binary -trace-buf 4000000000",
		"reject_crash_pid":      "-algo fig9 -n 5 -l 2 -crashes 9:10",
		"reject_t_bound":        "-algo fig8 -n 5 -l 2 -t 3",
		"reject_net_with_gst":   "-algo ohp -net psync:0:2 -gst 40 -delta 6",
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(args), &stdout, &stderr)
		checkGolden(t, name, stdout.String()+stderr.String()+fmt.Sprintf("exit %d\n", code))
	}
}

// TestGoldenReplayDamaged: -replay of the heartbeat grid trace cut short
// — a few bytes into frame 1, just before frame 1's restart control, one
// byte short of the trailer — prints the header, then fails with the
// decoder's format error and exit 1 (stdout, stderr and the exit code are
// the golden). The cuts come from the trace's own index.
func TestGoldenReplayDamaged(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "run.bin")
	var args string
	for _, tc := range grid {
		if tc.name == "heartbeat" {
			args = tc.args
		}
	}
	hdsim(t, tmp, append(strings.Fields(args), "-trace", bin, "-trace-format", "binary")...)
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := trace.OpenTraceFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	frame1 := tf.Index().Frames[1].Offset
	for _, tc := range []struct {
		name string
		cut  uint64
	}{
		{"replay_cut_mid_frame", frame1 + 3},
		{"replay_cut_before_restart", frame1 - 2}, // the restart control precedes the frame
		{"replay_cut_in_trailer", uint64(len(data)) - 1},
	} {
		path := filepath.Join(tmp, tc.name+".bin")
		if err := os.WriteFile(path, data[:tc.cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-replay", path}, &stdout, &stderr)
		checkGolden(t, tc.name, stdout.String()+stderr.String()+fmt.Sprintf("exit %d\n", code))
	}
}

// TestReplayUnreadableHeader: a file that is no trace at all is a replay
// error, not a verification failure, and prints nothing.
func TestReplayUnreadableHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-replay", path}, &stdout, &stderr)
	if want := "hdsim: replay: trace: binary format error: bad magic"; code != 1 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("exit %d, stdout %q, stderr %q: want exit 1, no output and %q", code, stdout.String(), stderr.String(), want)
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
		{"heartbeat with crashes", "-algo heartbeat -crashes 1:5", "not crashes"},
		{"ohp crashes and churn", "-algo ohp -crashes 1:5 -churn 0.3:1", "either a churn spec or crashes"},
		{"bad crashes", "-crashes garbage", "bad crash spec"},
		{"bad net", "-net warp:9", `unknown network "warp"`},
		{"negative max-events", "-max-events -3", "max-events=-3"},
		{"negative period", "-algo heartbeat -period -5", "period=-5"},
		{"no seeds", "-seeds 0", "-seeds 0, want >= 1"},
		{"delta beside net", "-net psync:0:2 -delta 6", "-delta beside -net"},
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
