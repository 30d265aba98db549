package scenario_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/hunt"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// base is an admissible fingerprint the rejection cases perturb.
func base() trace.Meta {
	return trace.Meta{Algo: "fig8", N: 5, L: 2, T: 2, Seed: 1, Delta: 3, Adversary: "rotate", Detectors: "oracle"}
}

// TestResolveRejects is the fail-closed table: every inadmissible value a
// flag or a hostile trace's metadata can carry comes back from Resolve as
// a named error — never a panic, never a silent default.
func TestResolveRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func(*trace.Meta)
		want string
	}{
		{"n zero", func(m *trace.Meta) { m.N = 0 }, "n=0"},
		{"n negative", func(m *trace.Meta) { m.N = -4 }, "n=-4"},
		{"n absurd", func(m *trace.Meta) { m.N, m.L = 1<<40, 1 }, "n="},
		{"l zero", func(m *trace.Meta) { m.L = 0 }, "l=0 outside [1, n=5]"},
		{"l above n", func(m *trace.Meta) { m.N, m.L = 3, 5 }, "l=5 outside [1, n=3]"},
		{"unknown algo", func(m *trace.Meta) { m.Algo = "bogus" }, `unknown algorithm "bogus"`},
		{"unknown adversary", func(m *trace.Meta) { m.Adversary = "bogus" }, `unknown adversary "bogus"`},
		{"unknown detectors", func(m *trace.Meta) { m.Detectors = "bogus" }, `unknown detector source "bogus"`},
		{"mp under fig9", func(m *trace.Meta) { m.Algo, m.Detectors = "fig9", "mp" }, "fig8 only"},
		{"mp under ohp", func(m *trace.Meta) { m.Algo, m.Detectors = "ohp", "mp" }, "fig8 only"},
		{"partition cut at n", func(m *trace.Meta) { m.Partitions = "0-10@5" }, "does not split n=5"},
		{"partition open at horizon", func(m *trace.Meta) { m.Partitions, m.Horizon = "0-500@2", 400 }, "never heal"},
		{"heartbeat with crashes", func(m *trace.Meta) { m.Algo, m.Crashes = "heartbeat", "1:5" }, "not -crashes"},
		{"ohp crashes and churn", func(m *trace.Meta) { m.Algo, m.Crashes, m.Churn = "ohp", "1:5", "0.3:1" }, "either -churn or -crashes"},
		{"beaters above n", func(m *trace.Meta) { m.Algo, m.Beaters = "heartbeat", 9 }, "-beaters 9 exceeds n=5"},
		{"bad crashes", func(m *trace.Meta) { m.Crashes = "garbage" }, "bad crash spec"},
		{"bad churn", func(m *trace.Meta) { m.Churn = "2" }, "bad churn fraction"},
		{"NaN churn", func(m *trace.Meta) { m.Churn = "NaN:1:60" }, "bad churn fraction"},
		{"NaN lossy net", func(m *trace.Meta) { m.Net = "lossy:NaN" }, `bad lossy spec "lossy:NaN"`},
		{"bad net", func(m *trace.Meta) { m.Net = "warp:9" }, `unknown network "warp"`},
		{"bad partitions", func(m *trace.Meta) { m.Partitions = "10@2" }, "bad partition window"},
		{"negative max-events", func(m *trace.Meta) { m.MaxEvents = -3 }, "max-events=-3"},
		{"negative period", func(m *trace.Meta) { m.Algo, m.Period = "heartbeat", -5 }, "period=-5"},
		{"negative horizon", func(m *trace.Meta) { m.Horizon = -7 }, "horizon=-7"},
		{"negative stabilize", func(m *trace.Meta) { m.Stabilize = -7 }, "stabilize=-7"},
		{"negative gst", func(m *trace.Meta) { m.GST = -1 }, "gst=-1"},
		{"negative gst under ohp", func(m *trace.Meta) { m.Algo, m.GST = "ohp", -1 }, "gst=-1"},
		{"negative delta", func(m *trace.Meta) { m.Delta = -3 }, "delta=-3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.edit(&m)
			sc, err := scenario.Resolve(&m)
			if err == nil {
				t.Fatalf("resolved to %+v, want an error containing %q", sc, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "scenario: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q: want the scenario: prefix and %q", err, tc.want)
			}
			if got := hunt.Classify(err); got != hunt.ClassConfig {
				t.Errorf("hunt.Classify(%q) = %s, want %s", err, got, hunt.ClassConfig)
			}
		})
	}
	if _, err := scenario.Resolve(nil); err == nil || !strings.Contains(err.Error(), "no scenario metadata") {
		t.Errorf("Resolve(nil) = %v, want the missing-metadata error", err)
	}
}

// TestValidateRejectsNonFiniteChurn: a programmatic caller's churn fraction
// never meets ParseChurn, so Validate holds the non-finite line itself.
func TestValidateRejectsNonFiniteChurn(t *testing.T) {
	m := base()
	sc, err := scenario.Resolve(&m)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sc.Churn.Fraction = f
		err := sc.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "scenario: churn fraction") {
			t.Errorf("Validate with churn fraction %v = %v, want a scenario: churn fraction error", f, err)
		}
	}
}

// TestResolveDefaults pins the defaulting rules: the network chain, ohp's
// own network (δ=0 meaning 3 — the value the run uses, so the value the
// header prints), the partition wrap, per-algorithm horizons, and the
// empty adversary/detector names older fingerprints carry.
func TestResolveDefaults(t *testing.T) {
	cases := []struct {
		name    string
		edit    func(*trace.Meta)
		net     string
		horizon sim.Time
	}{
		{"consensus default", func(m *trace.Meta) {}, sim.Async{MaxDelay: 8}.String(), 3_000_000},
		{"gst switches to psync", func(m *trace.Meta) { m.GST, m.Delta = 60, 4 }, sim.PartialSync{GST: 60, Delta: 4}.String(), 3_000_000},
		{"net overrides gst", func(m *trace.Meta) { m.GST, m.Net = 60, "timely:2" }, sim.Timely{Delta: 2}.String(), 3_000_000},
		{"explicit horizon", func(m *trace.Meta) { m.Horizon = 777 }, sim.Async{MaxDelay: 8}.String(), 777},
		{"empty adversary and detectors", func(m *trace.Meta) { m.Adversary, m.Detectors = "", "" }, sim.Async{MaxDelay: 8}.String(), 3_000_000},
		{"ohp own default", func(m *trace.Meta) { m.Algo = "ohp" }, sim.PartialSync{Delta: 3}.String(), 5000},
		{"ohp delta 0 means 3", func(m *trace.Meta) { m.Algo, m.Delta = "ohp", 0 }, sim.PartialSync{Delta: 3}.String(), 5000},
		{"ohp churn same default", func(m *trace.Meta) { m.Algo, m.Churn = "ohp", "0.4:1" }, sim.PartialSync{Delta: 3}.String(), 5000},
		{"ohp gst given", func(m *trace.Meta) { m.Algo, m.GST, m.Delta = "ohp", 50, 4 }, sim.PartialSync{GST: 50, Delta: 4}.String(), 5000},
		{"ohp net given", func(m *trace.Meta) { m.Algo, m.Net = "ohp", "async:5" }, sim.Async{MaxDelay: 5}.String(), 5000},
		{"partition wraps the chain", func(m *trace.Meta) { m.Partitions = "0-120@2" },
			sim.Partition{Base: sim.Async{MaxDelay: 8}, Windows: []sim.PartitionWindow{{From: 0, To: 120, Cut: 2}}}.String(), 3_000_000},
		{"heartbeat ten periods", func(m *trace.Meta) { m.Algo, m.Period = "heartbeat", 15 }, sim.Async{MaxDelay: 8}.String(), 150},
		{"heartbeat default period", func(m *trace.Meta) { m.Algo = "heartbeat" }, sim.Async{MaxDelay: 8}.String(), 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.edit(&m)
			sc, err := scenario.Resolve(&m)
			if err != nil {
				t.Fatal(err)
			}
			if got := sc.Net.String(); got != tc.net {
				t.Errorf("net = %s, want %s", got, tc.net)
			}
			if sc.Horizon != tc.horizon {
				t.Errorf("horizon = %d, want %d", sc.Horizon, tc.horizon)
			}
			// The runaway guard is every algorithm's, not heartbeat's alone.
			m.MaxEvents = 77
			if sc, err = scenario.Resolve(&m); err != nil {
				t.Fatal(err)
			}
			if sc.MaxEvents != 77 {
				t.Errorf("MaxEvents = %d, want the fingerprint's 77", sc.MaxEvents)
			}
		})
	}
}

// FuzzResolve feeds Resolve arbitrary fingerprints — what a hostile
// trace's metadata block can carry. It must never panic, and every
// rejection must carry a prefix hunt.Classify files under config (a
// resolver error mistaken for a finding would send the fuzzer shrinking
// its own input validation).
func FuzzResolve(f *testing.F) {
	for _, seed := range []string{
		`{"algo":"fig8","n":5,"l":2,"t":2,"seed":1}`,
		`{"algo":"bogus","n":3,"l":5,"adversary":"x liveness: y"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m trace.Meta
		if json.Unmarshal(data, &m) != nil {
			return
		}
		if m.N > 1<<16 && m.N <= scenario.MaxN {
			return // admissible but slow: the assignment is O(n)
		}
		if _, err := scenario.Resolve(&m); err != nil {
			if got := hunt.Classify(err); got != hunt.ClassConfig {
				t.Fatalf("Resolve(%s) = %q, classified %s, want %s", data, err, got, hunt.ClassConfig)
			}
		}
	})
}
