package replay_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// The differential contract: a live run's verdict report and the report
// Verify re-derives from that run's trace alone must be byte-identical.
// Both sides resolve the fingerprint through internal/scenario (whose
// rules cmd/hdsim's golden outputs pin); the live side then runs the
// engine, the replay side only reads the recorded events — so a drift in
// the checker reconstruction or the stats re-aggregation surfaces as a
// byte diff.

// liveRun executes the scenario the way cmd/hdsim does — resolve, run,
// render — with a retaining recorder, and returns the rendered live report
// plus the recorded events.
func liveRun(t testing.TB, m *trace.Meta) (string, []trace.Event) {
	t.Helper()
	sc, err := scenario.Resolve(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	var buf bytes.Buffer
	replay.WriteHeader(&buf, sc)
	res, err := sc.Run(m.Seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	// The replay form: heartbeat's engine-only counters cannot be compared.
	replay.WriteReport(&buf, sc, res, false)
	return buf.String(), rec.Events()
}

// grid is every (algorithm, fault pattern, network) shape the driver can
// record, each with the flag-level fingerprint hdsim would stamp on the
// trace. Every detector source, both churn and crash-stop fault inputs,
// and all four network families (async, psync, lossy, partition) appear.
var grid = []struct {
	name string
	meta *trace.Meta
}{
	{"fig8_oracle_async_crashes", &trace.Meta{
		Algo: "fig8", N: 5, L: 2, T: 2, Crashes: "1:40,3:60",
		Seed: 1, Stabilize: 100, Adversary: "rotate", Delta: 3,
	}},
	{"fig8_mp_psync", &trace.Meta{
		Algo: "fig8", N: 5, L: 2, T: 2, Crashes: "0:50", GST: 200, Delta: 5,
		Seed: 2, Stabilize: 100, Adversary: "rotate", Detectors: "mp",
	}},
	{"fig8_oracle_churn_psync", &trace.Meta{
		Algo: "fig8", N: 5, L: 3, T: 2, Churn: "0.4:1", GST: 100, Delta: 4,
		Seed: 3, Stabilize: 100, Adversary: "rotate",
	}},
	{"fig9_partition_split", &trace.Meta{
		Algo: "fig9", N: 4, L: 2, Partitions: "0-120@2",
		Seed: 4, Stabilize: 150, Adversary: "split", Delta: 3,
	}},
	{"fig9anon_async", &trace.Meta{
		Algo: "fig9-anon", N: 4, L: 1,
		Seed: 5, Stabilize: 100, Adversary: "none", Delta: 3,
	}},
	{"fig9_churn_async", &trace.Meta{
		Algo: "fig9", N: 6, L: 3, Churn: "0.34:1",
		Seed: 6, Stabilize: 100, Adversary: "rotate", Delta: 3,
	}},
	{"ohp_crashes_default_net", &trace.Meta{
		Algo: "ohp", N: 5, L: 2, Crashes: "1:100,4:200", Delta: 3, Seed: 7,
	}},
	{"ohp_crashes_delta0", &trace.Meta{
		Algo: "ohp", N: 5, L: 2, Crashes: "1:100", Seed: 12,
	}},
	{"ohp_crashes_psync_net", &trace.Meta{
		Algo: "ohp", N: 5, L: 2, Crashes: "2:150", Net: "psync:50:4", Delta: 3, Seed: 8,
	}},
	{"ohp_churn_default_net", &trace.Meta{
		Algo: "ohp", N: 6, L: 2, Churn: "0.33:1", Delta: 3, Seed: 9,
	}},
	{"ohp_churn_net_override", &trace.Meta{
		Algo: "ohp", N: 5, L: 2, Churn: "0.4:1", Net: "psync:0:2", Delta: 3, Seed: 10,
	}},
	{"heartbeat_churn_lossy_beaters", &trace.Meta{
		Algo: "heartbeat", N: 40, L: 4, Churn: "0.3:1", Net: "lossy:0.2:6",
		Period: 15, Beaters: 5, Seed: 11, Delta: 3,
	}},
}

func TestLiveReplayEquivalence(t *testing.T) {
	for _, tc := range grid {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			live, events := liveRun(t, tc.meta)
			var buf bytes.Buffer
			if err := replay.Verify(tc.meta, trace.NewSliceSource(events), &buf); err != nil {
				t.Fatalf("replay verify: %v\nlive report:\n%s", err, live)
			}
			if got := buf.String(); got != live {
				t.Errorf("replay report differs from live:\n--- live ---\n%s--- replay ---\n%s", live, got)
			}
		})
	}
}

// TestLiveReplayEquivalenceBinary round-trips the live events through the
// v2 binary encoding before verifying: the full product pipeline
// (record → spill → reopen → verify) must preserve the verdict bytes too.
func TestLiveReplayEquivalenceBinary(t *testing.T) {
	m := grid[0].meta
	live, events := liveRun(t, m)

	var file bytes.Buffer
	sink := trace.NewBinarySink(&file)
	sink.SetMeta(m)
	if err := sink.Spill(events); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewBinaryReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() == nil || *r.Meta() != *m {
		t.Fatalf("metadata did not survive the binary round trip: %+v", r.Meta())
	}
	var buf bytes.Buffer
	if err := replay.Verify(r.Meta(), trace.NewSliceSource(got), &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != live {
		t.Errorf("binary replay differs from live:\n--- live ---\n%s--- replay ---\n%s", live, buf.String())
	}
}

func drainAll(src trace.EventSource) ([]trace.Event, error) {
	var out []trace.Event
	err := trace.Drain(src, func(e trace.Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// TestVerifyDetectsTamperedTrace plants violations in healthy traces and
// checks Verify rejects them with the live checkers' own messages.
func TestVerifyDetectsTamperedTrace(t *testing.T) {
	m := grid[0].meta
	_, events := liveRun(t, m)

	t.Run("agreement", func(t *testing.T) {
		tampered := append([]trace.Event(nil), events...)
		flipped := false
		for i, e := range tampered {
			if e.Kind == trace.KindDecide && !flipped {
				tampered[i].Detail = "vBOGUS r=1"
				flipped = true
			}
		}
		if !flipped {
			t.Fatal("trace has no decide events")
		}
		err := replay.Verify(m, trace.NewSliceSource(tampered), new(bytes.Buffer))
		if err == nil {
			t.Fatal("tampered trace verified")
		}
		if !strings.Contains(err.Error(), "check:") {
			t.Fatalf("want a checker violation, got: %v", err)
		}
	})

	t.Run("instability", func(t *testing.T) {
		tampered := append([]trace.Event(nil), events...)
		for _, e := range events {
			if e.Kind == trace.KindDecide {
				dup := e
				dup.Detail = "vOTHER r=9"
				dup.Time++
				tampered = append(tampered, dup)
				break
			}
		}
		err := replay.Verify(m, trace.NewSliceSource(tampered), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "changed its decision") {
			t.Fatalf("want a stability violation, got: %v", err)
		}
	})

	t.Run("missing recovery", func(t *testing.T) {
		hb := grid[len(grid)-1].meta
		_, hbEvents := liveRun(t, hb)
		pruned := make([]trace.Event, 0, len(hbEvents))
		dropped := false
		for _, e := range hbEvents {
			if e.Kind == trace.KindRecover && !dropped {
				dropped = true
				continue
			}
			pruned = append(pruned, e)
		}
		if !dropped {
			t.Fatal("heartbeat trace has no recover events")
		}
		err := replay.Verify(hb, trace.NewSliceSource(pruned), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "recoveries") {
			t.Fatalf("want a recovery-count violation, got: %v", err)
		}
	})

	t.Run("no metadata", func(t *testing.T) {
		err := replay.Verify(nil, trace.NewSliceSource(events), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "no scenario metadata") {
			t.Fatalf("want the missing-metadata error, got: %v", err)
		}
	})
}

// BenchmarkReplayVerify measures offline re-verification throughput over
// an in-memory heartbeat trace (the population-scale workload shape).
func BenchmarkReplayVerify(b *testing.B) {
	m := &trace.Meta{
		Algo: "heartbeat", N: 500, L: 10, Churn: "0.2:1:20:30:0",
		Period: 15, Beaters: 20, Seed: 1, Delta: 3,
	}
	_, events := liveRun(b, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := replay.Verify(m, trace.NewSliceSource(events), new(bytes.Buffer)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}
