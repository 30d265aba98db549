package hds

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fd/oracle"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/defaults_pin.txt from the current behaviour")

// TestDefaultsPin pins what a run description means when it leaves its
// optional fields zero: every algorithm with nothing but an assignment,
// the same under churn (with a split-brain oracle the consensus runs decide
// only after the stabilization default, derived from the schedule), a
// churn schedule ending one tick inside the consensus default horizon, and
// one run per algorithm that sets the field the zero run defaults —
// proposals, the network, the beater count.
// Each line holds the sha256 of the run's text trace and every result
// field, from a traced run and from a stats-only one.
func TestDefaultsPin(t *testing.T) {
	ids := BalancedIDs(5, 2)
	churn := ChurnSpec{Fraction: 0.4, Cycles: 1, Start: 1, Down: 40, Stagger: 2}
	split := oracle.AdversarySplit
	proposals := []Value{"p", "q", "r", "s", "t"}
	cases := []struct {
		name string
		e    Experiment
	}{
		{"fig8/zero", Experiment{Algo: "fig8", IDs: ids}},
		{"fig9/zero", Experiment{Algo: "fig9", IDs: ids}},
		{"fig9-anon/zero", Experiment{Algo: "fig9-anon", IDs: AnonymousIDs(5)}},
		{"ohp/zero", Experiment{Algo: "ohp", IDs: ids}},
		{"heartbeat/zero", Experiment{Algo: "heartbeat", IDs: ids}},
		{"fig8/churn", Experiment{Algo: "fig8", IDs: ids, T: 2, Churn: churn, Adversary: split}},
		{"fig9/churn", Experiment{Algo: "fig9", IDs: ids, Churn: churn, Adversary: split}},
		{"fig9-anon/churn", Experiment{Algo: "fig9-anon", IDs: AnonymousIDs(5), Churn: churn, Adversary: split}},
		{"ohp/churn", Experiment{Algo: "ohp", IDs: ids, Churn: churn}},
		{"heartbeat/churn", Experiment{Algo: "heartbeat", IDs: ids, Churn: churn}},
		{"fig8/horizon", Experiment{Algo: "fig8", IDs: ids, T: 2, Churn: ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 999_000, Down: 999}}},
		{"fig8/proposals", Experiment{Algo: "fig8", IDs: ids, T: 2, Crashes: map[PID]Time{3: 40}, Proposals: proposals}},
		{"fig9/proposals", Experiment{Algo: "fig9", IDs: ids, Crashes: map[PID]Time{0: 20, 1: 30, 2: 40}, Proposals: proposals}},
		{"fig9-anon/net", Experiment{Algo: "fig9-anon", IDs: AnonymousIDs(5), Net: PartialSync{GST: 60, Delta: 4}}},
		{"ohp/net", Experiment{Algo: "ohp", IDs: ids, Crashes: map[PID]Time{1: 30}, Net: Async{MaxDelay: 5}}},
		{"heartbeat/beaters", Experiment{Algo: "heartbeat", IDs: BalancedIDs(12, 3), Beaters: 4, Churn: churn}},
	}
	var out strings.Builder
	for i, c := range cases {
		seed := int64(1 + i)
		sink := &digestSink{h: sha256.New()}
		rec := trace.NewSpillRecorder(sink, 0)
		traced, err := c.e.Run(seed, rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		plain, err := c.e.Run(seed, nil)
		if err != nil {
			t.Fatalf("%s stats-only: %v", c.name, err)
		}
		fmt.Fprintf(&out, "%s seed=%d trace=%x\n  traced: %+v\n  plain:  %+v\n", c.name, seed, sink.h.Sum(nil), traced, plain)
	}
	const path = "testdata/defaults_pin.txt"
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("defaults pin differs from %s:\n--- got ---\n%s", path, got)
	}
}
