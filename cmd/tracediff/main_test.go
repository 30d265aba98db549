package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current behaviour")

// fixtureEvents is a 300-event run shaped like a detector trace: rounds of
// one broadcast fanned out to four receivers, a drop with a long detail
// now and then, one crash.
func fixtureEvents() []trace.Event {
	var evs []trace.Event
	for round := 0; len(evs) < 300; round++ {
		t := int64(10 * round)
		sender := round % 5
		evs = append(evs, trace.Event{Time: t, Kind: trace.KindBroadcast, PID: sender, MsgTag: "ALIVE", Detail: fmt.Sprintf("g%03d", sender)})
		for p := 0; p < 5; p++ {
			switch {
			case p == sender:
			case round%7 == 3 && p == 4:
				evs = append(evs, trace.Event{Time: t + 2, Kind: trace.KindDrop, PID: p, MsgTag: "ALIVE", Detail: "receiver down"})
			default:
				evs = append(evs, trace.Event{Time: t + int64(p) + 1, Kind: trace.KindDeliver, PID: p, MsgTag: "ALIVE", Detail: fmt.Sprintf("g%03d", sender)})
			}
		}
		if round == 20 {
			evs = append(evs, trace.Event{Time: t + 6, Kind: trace.KindCrash, PID: 4})
		}
	}
	return evs[:300]
}

// writeTrace encodes events as a finalized v2 trace file and returns its
// bytes.
func writeTrace(t *testing.T, name string, events []trace.Event, stride int, meta *trace.Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := trace.NewBinarySink(&buf)
	sink.FrameEvents = stride
	sink.SetMeta(meta)
	if err := sink.Spill(events); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, name, buf.Bytes())
	return buf.Bytes()
}

func writeFile(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGolden pins tracediff's whole observable surface — exit code,
// stdout, stderr — on a fixed set of trace pairs. tracediff is the trace
// decoder's second consumer (one lockstep Next loop, from the frame the
// index picks through OpenFrom or from the first event), so the files
// under testdata/golden, most captured with the byte-at-a-time decoder
// and the old two-loop comparison, are an oracle for any decoder change.
// A deliberate change regenerates them with `go test ./cmd/tracediff
// -update`.
func TestGolden(t *testing.T) {
	goldenDir, err := filepath.Abs(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir()) // relative trace names keep stderr machine-independent

	meta := &trace.Meta{Algo: "ohp", N: 5, L: 2, Crashes: "4:206", Seed: 1}
	events := fixtureEvents()
	skewAt := func(i int) []trace.Event {
		evs := append([]trace.Event(nil), events...)
		evs[i].Detail += " [skew]"
		return evs
	}
	skewed := skewAt(100)

	a := writeTrace(t, "a.bin", events, 64, meta)
	b := writeTrace(t, "b.bin", events, 64, meta)
	skew := writeTrace(t, "skew.bin", skewed, 64, meta)
	writeTrace(t, "a32.bin", events, 32, meta)
	writeTrace(t, "skew32.bin", skewed, 32, meta)
	writeTrace(t, "skew5.bin", skewAt(5), 64, meta)
	writeTrace(t, "skew290.bin", skewAt(290), 64, meta)
	writeTrace(t, "short.bin", events[:150], 64, meta)
	writeTrace(t, "short32.bin", events[:150], 32, meta)
	writeTrace(t, "empty.bin", nil, 64, meta)
	otherMeta := *meta
	otherMeta.Seed = 2
	writeTrace(t, "seed2.bin", events, 64, &otherMeta)
	// A run that died before finalizing: the body stops between events,
	// with no end-of-events marker, index or trailer.
	tf, err := trace.OpenTraceFile(bytes.NewReader(skew), int64(len(skew)))
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, "skew-unfinalized.bin", skew[:tf.Index().Frames[3].Offset-2])
	// A body damaged after it was written: frame 1's first byte becomes an
	// invalid kind, and the index still describes the intact trace.
	corrupt := bytes.Clone(skew)
	corrupt[tf.Index().Frames[1].Offset] = 0x7f
	writeFile(t, "corrupt.bin", corrupt)
	// The same events under another recorded total digest (the 8 bytes
	// before the trailer): the frames all agree, so the search starts in
	// the last one, and the events there agree too.
	redigest := bytes.Clone(b)
	redigest[len(redigest)-24] ^= 0xff
	writeFile(t, "redigest.bin", redigest)
	writeFile(t, "truncated.bin", a[:len(a)/2])
	writeFile(t, "v1.bin", []byte{'H', 'D', 'T', 'R', 'A', 'C', 'E', 1, 1, 2, 0, 0, 0})

	cases := []struct {
		name string
		args string
	}{
		{"identical", "a.bin b.bin"},
		{"skew_indexed", "a.bin skew.bin"},
		// The frame search's two ends: a skew in frame 0, and one in the
		// last frame, where no frame's DigestBefore differs.
		{"skew_first_frame", "a.bin skew5.bin"},
		{"skew_last_frame", "a.bin skew290.bin"},
		{"shorter_indexed", "a.bin short.bin"},
		{"meta_differ", "a.bin seed2.bin"},
		{"skew_unfinalized", "a.bin skew-unfinalized.bin"},
		{"stride_mismatch_identical", "a.bin a32.bin"},
		{"stride_mismatch_skew", "a.bin skew32.bin"},
		// Misaligned frames take the linear path, which must still count
		// the longer trace to its end.
		{"shorter_stride_mismatch", "a.bin short32.bin"},
		{"empty_vs_full", "empty.bin a.bin"},
		{"v1_header", "a.bin v1.bin"},
		{"truncated", "a.bin truncated.bin"},
		{"corrupt_frame_indexed", "a.bin corrupt.bin"},
		{"digest_only_differs", "a.bin redigest.bin"},
		{"missing_file", "a.bin missing.bin"},
		{"one_arg", "a.bin"},
		{"unknown_flag", "-frobnicate a.bin b.bin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(tc.args), &stdout, &stderr)
			got := fmt.Sprintf("exit %d\n--- stdout ---\n%s--- stderr ---\n%s", code, stdout.String(), stderr.String())
			path := filepath.Join(goldenDir, tc.name+".txt")
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
				t.Errorf("tracediff %s differs from golden:\n--- want ---\n%s\n--- got ---\n%s", tc.args, want, got)
			}
		})
	}
}

// TestLinearTailError: once the shorter trace has ended, the linear path
// reads the longer one to its end to count it, and a decode error there
// — later on, or in the very record read beside the other's end — is a
// failure of that trace (exit 2), not a length.
func TestLinearTailError(t *testing.T) {
	t.Chdir(t.TempDir())
	a := writeTrace(t, "a.bin", fixtureEvents(), 64, nil)
	writeTrace(t, "empty.bin", nil, 64, nil)
	writeFile(t, "truncated.bin", a[:len(a)/2])
	tf, err := trace.OpenTraceFile(bytes.NewReader(a), int64(len(a)))
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, "cut.bin", a[:tf.Index().Frames[0].Offset+1]) // one byte of the first record
	for _, tc := range []struct{ args, bad string }{
		{"empty.bin truncated.bin", "truncated.bin"},
		{"truncated.bin empty.bin", "truncated.bin"},
		{"empty.bin cut.bin", "cut.bin"},
		{"cut.bin empty.bin", "cut.bin"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		want := "tracediff: " + tc.bad + ": trace: binary format error: "
		if code != 2 || !strings.HasPrefix(stderr.String(), want) || strings.Contains(stdout.String(), "lengths diverge") {
			t.Errorf("tracediff %s: exit %d, stdout %q, stderr %q; want exit 2 and %q", tc.args, code, stdout.String(), stderr.String(), want)
		}
	}
}
