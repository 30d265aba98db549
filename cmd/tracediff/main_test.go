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
// decoder's second consumer (OpenFrame for the indexed search, lockstep
// Next for the fallback), so the files under testdata/golden, captured
// with the byte-at-a-time decoder, are an oracle for any decoder change.
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
	skewed := append([]trace.Event(nil), events...)
	skewed[100].Detail += " [skew]"

	a := writeTrace(t, "a.bin", events, 64, meta)
	writeTrace(t, "b.bin", events, 64, meta)
	skew := writeTrace(t, "skew.bin", skewed, 64, meta)
	writeTrace(t, "a32.bin", events, 32, meta)
	writeTrace(t, "skew32.bin", skewed, 32, meta)
	writeTrace(t, "short.bin", events[:150], 64, meta)
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
	writeFile(t, "truncated.bin", a[:len(a)/2])
	writeFile(t, "v1.bin", []byte{'H', 'D', 'T', 'R', 'A', 'C', 'E', 1, 1, 2, 0, 0, 0})

	cases := []struct {
		name string
		args string
	}{
		{"identical", "a.bin b.bin"},
		{"skew_indexed", "a.bin skew.bin"},
		{"shorter_indexed", "a.bin short.bin"},
		{"meta_differ", "a.bin seed2.bin"},
		{"skew_unfinalized", "a.bin skew-unfinalized.bin"},
		{"stride_mismatch_identical", "a.bin a32.bin"},
		{"stride_mismatch_skew", "a.bin skew32.bin"},
		{"v1_header", "a.bin v1.bin"},
		{"truncated", "a.bin truncated.bin"},
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
