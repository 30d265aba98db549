package hds_test

import (
	"strings"
	"testing"

	hds "repro"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestValidateOneRuleTwoFaces: every admissibility rule is stated once,
// in hds.Experiment.Validate, so the library face (Experiment.Run) and the
// resolver face (scenario.Resolve) reject the same input with the same
// words — hds: and scenario: before one body. Each case is one experiment
// written both ways: as a struct literal and as the fingerprint hdsim
// builds from its flags.
func TestValidateOneRuleTwoFaces(t *testing.T) {
	ids := hds.BalancedIDs(5, 2)
	meta := func(edit func(*trace.Meta)) *trace.Meta {
		m := &trace.Meta{Algo: "fig8", N: 5, L: 2, T: 2, Seed: 1, Delta: 3, Adversary: "rotate", Detectors: "oracle"}
		edit(m)
		return m
	}
	// part is the network the resolver builds for a -partition spec over
	// its default Async{MaxDelay: 8} base.
	part := func(w sim.PartitionWindow) sim.Model {
		return sim.Partition{Base: sim.Async{MaxDelay: 8}, Windows: []sim.PartitionWindow{w}}
	}
	cases := []struct {
		name string
		e    hds.Experiment
		m    *trace.Meta
		body string
	}{
		{"beaters above n",
			hds.Experiment{Algo: "heartbeat", IDs: ids, Beaters: 9},
			meta(func(m *trace.Meta) { m.Algo, m.Beaters = "heartbeat", 9 }),
			"beaters=9 exceeds n=5"},
		{"beaters negative",
			hds.Experiment{Algo: "heartbeat", IDs: ids, Beaters: -3},
			meta(func(m *trace.Meta) { m.Algo, m.Beaters = "heartbeat", -3 }),
			"beaters=-3, want >= 0"},
		{"ohp churn and a crash",
			hds.Experiment{Algo: "ohp", IDs: ids, Crashes: map[hds.PID]hds.Time{4: 5}, Churn: hds.ChurnSpec{Fraction: 0.2, Cycles: 1, Down: 40, Stagger: 7}},
			meta(func(m *trace.Meta) { m.Algo, m.Crashes, m.Churn = "ohp", "4:5", "0.2:1:40" }),
			"ohp takes either a churn spec or crashes, not both"},
		{"partition cut at n",
			hds.Experiment{Algo: "fig8", IDs: ids, T: 2, Net: part(sim.PartitionWindow{From: 0, To: 10, Cut: 5})},
			meta(func(m *trace.Meta) { m.Partitions = "0-10@5" }),
			"partition cut 5 does not split n=5 processes"},
		{"partition open at the horizon",
			hds.Experiment{Algo: "fig8", IDs: ids, T: 2, Horizon: 400, Net: part(sim.PartitionWindow{From: 0, To: 500, Cut: 2})},
			meta(func(m *trace.Meta) { m.Partitions, m.Horizon = "0-500@2", 400 }),
			"never heal inside the run"},
		{"heartbeat with crashes",
			hds.Experiment{Algo: "heartbeat", IDs: ids, Crashes: map[hds.PID]hds.Time{1: 5}},
			meta(func(m *trace.Meta) { m.Algo, m.Crashes = "heartbeat", "1:5" }),
			"heartbeat takes a churn spec, not crashes"},
		{"unknown algorithm",
			hds.Experiment{Algo: "bogus", IDs: ids},
			meta(func(m *trace.Meta) { m.Algo = "bogus" }),
			`unknown algorithm "bogus"`},
		{"crash pid outside n",
			hds.Experiment{Algo: "fig9", IDs: ids, Crashes: map[hds.PID]hds.Time{9: 10}},
			meta(func(m *trace.Meta) { m.Algo, m.Crashes = "fig9", "9:10" }),
			"crash schedule names process 9 outside [0,5)"},
		{"fig8 t of 3 at n=5",
			hds.Experiment{Algo: "fig8", IDs: ids, T: 3},
			meta(func(m *trace.Meta) { m.T = 3 }),
			"Fig8 requires 0 <= t < n/2, got t=3 n=5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, runErr := c.e.Run(1, nil)
			_, resErr := scenario.Resolve(c.m)
			if runErr == nil || resErr == nil {
				t.Fatalf("Run = %v, Resolve = %v: want both to reject", runErr, resErr)
			}
			lib, ok1 := strings.CutPrefix(runErr.Error(), "hds: ")
			res, ok2 := strings.CutPrefix(resErr.Error(), "scenario: ")
			if !ok1 || !ok2 {
				t.Fatalf("Run = %q, Resolve = %q: want the hds: and scenario: prefixes", runErr, resErr)
			}
			if lib != res || !strings.Contains(lib, c.body) {
				t.Errorf("bodies differ or miss %q:\n  Run:     %s\n  Resolve: %s", c.body, lib, res)
			}
		})
	}
}
