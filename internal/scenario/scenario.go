// Package scenario holds the one definition of "which scenario is this". A
// Scenario is an hds.Experiment plus the fingerprint it was resolved from;
// Resolve is the only code that derives one from a flag-level fingerprint
// (trace.Meta — what cmd/hdsim builds from its flags and what a v2 trace
// embeds). Admissibility and the run's own defaults belong to the
// experiment (hds.Experiment.Validate and WithDefaults): Resolve adds only
// the driver's choices and flag syntax, and Validate only the
// fingerprint's own -gst/-delta signs. Running one is the embedded
// experiment's Run. cmd/hdsim, offline replay and the hunt fuzzer are
// views of it: hdsim and replay resolve a Meta, hunt fills a Scenario from
// its own JSON form with its own defaults, and all three run, verify or
// render the same value.
package scenario

import (
	"fmt"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/fd/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario is one runnable experiment. Resolve fills every default with
// the value the run uses, which is what report headers print; a zero field
// (hunt leaves them so) selects the run's own default.
type Scenario struct {
	// Meta is the fingerprint the scenario was resolved from; report
	// headers echo its raw specs. Nil for scenarios not built by Resolve.
	Meta *trace.Meta
	hds.Experiment
}

// Resolve turns a scenario fingerprint into runnable terms. The driver's
// own choices are made here: the base network is Async{MaxDelay: 8},
// -gst>0 or ohp switches to PartialSync{gst, delta}, δ=0 meaning 3 on
// every PartialSync it builds, an explicit -net spec overrides all of
// that, partitions wrap the result, and consensus runs to 3,000,000 by
// default. Every other default is the experiment's
// (hds.Experiment.WithDefaults), and every inadmissible value is rejected
// by Validate, before anything is printed, created or run. Beyond the
// identifier assignment its cost grows with n only through Validate's,
// which is O(n) plus a sort of the fault schedule's events.
func Resolve(m *trace.Meta) (*Scenario, error) {
	if m == nil {
		return nil, fmt.Errorf("scenario: trace carries no scenario metadata (recorded by an older hdsim?)")
	}
	sc := &Scenario{Meta: m, Experiment: hds.Experiment{
		Algo: m.Algo, T: m.T,
		Horizon: hds.Time(m.Horizon), Stabilize: hds.Time(m.Stabilize),
		Beaters: m.Beaters, MaxEvents: m.MaxEvents,
	}}
	var err error
	if sc.IDs, err = BalancedIDs(m.N, m.L); err != nil {
		return nil, err
	}
	if sc.Crashes, err = cliutil.ParseCrashes(m.Crashes); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if sc.Churn, err = cliutil.ParseChurn(m.Churn); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	windows, err := cliutil.ParsePartitions(m.Partitions)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if sc.Adversary, err = ParseAdversary(m.Adversary); err != nil {
		return nil, err
	}
	switch m.Detectors {
	case "", "oracle":
	case "mp":
		sc.Detectors = hds.MessagePassingDetectors
	default:
		return nil, fmt.Errorf("scenario: unknown detector source %q (want oracle or mp)", m.Detectors)
	}

	var base sim.Model = sim.Async{MaxDelay: 8}
	if m.GST > 0 || m.Algo == "ohp" {
		delta := hds.Time(m.Delta)
		if delta == 0 {
			delta = 3 // δ = 0 would make every post-GST link instantaneous
		}
		base = sim.PartialSync{GST: hds.Time(m.GST), Delta: delta}
	}
	switch m.Algo {
	case "fig8", "fig9", "fig9-anon":
		if sc.Horizon == 0 {
			sc.Horizon = 3_000_000
		}
	case "heartbeat":
		sc.Period = hds.Time(m.Period)
	}
	if sc.Net, err = Network(m.Net, base, windows); err != nil {
		return nil, err
	}
	sc.Experiment = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// MaxN bounds the population a description may ask for. The engine
// addresses processes with int32 and the assignment allocates per process,
// so an unchecked n from a hostile trace's metadata is a request for
// terabytes; the largest population the repository runs is 50,000.
const MaxN = 1 << 24

// BalancedIDs is hds.BalancedIDs with its preconditions checked: n and l
// arrive from flags, trace metadata and fuzzer JSON.
func BalancedIDs(n, l int) (hds.Assignment, error) {
	if n < 1 || n > MaxN {
		return nil, fmt.Errorf("scenario: n=%d, want 1 <= n <= %d", n, MaxN)
	}
	if l < 1 || l > n {
		return nil, fmt.Errorf("scenario: l=%d outside [1, n=%d]", l, n)
	}
	return hds.BalancedIDs(n, l), nil
}

// ParseAdversary maps an -adversary name to the oracle behaviour; the
// empty string is the flag's default, rotate.
func ParseAdversary(name string) (oracle.Adversary, error) {
	switch name {
	case "none":
		return oracle.AdversaryNone, nil
	case "", "rotate":
		return oracle.AdversaryRotate, nil
	case "split":
		return oracle.AdversarySplit, nil
	}
	return 0, fmt.Errorf("scenario: unknown adversary %q (want none, rotate or split)", name)
}

// Network builds a scenario's network model: the parsed spec, or def when
// the spec is empty, wrapped in the partition schedule when there is one.
func Network(spec string, def sim.Model, windows []sim.PartitionWindow) (sim.Model, error) {
	net := def
	if spec != "" {
		var err error
		if net, err = cliutil.ParseNet(spec); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	if len(windows) > 0 {
		net = sim.Partition{Base: net, Windows: windows}
	}
	return net, nil
}

// Validate rejects scenarios no run should be handed: what the embedded
// experiment's Validate rejects, and a negative -gst or -delta in the
// fingerprint. A zero Horizon (the run's own default, as hunt leaves it)
// is judged as the run will fill it.
func (sc *Scenario) Validate() error {
	if err := sc.Experiment.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if m := sc.Meta; m != nil {
		if m.GST < 0 {
			return fmt.Errorf("scenario: gst=%d, want >= 0", m.GST)
		}
		if m.Delta < 0 {
			return fmt.Errorf("scenario: delta=%d, want >= 0", m.Delta)
		}
	}
	return nil
}
