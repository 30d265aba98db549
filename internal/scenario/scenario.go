// Package scenario holds the one definition of "which scenario is this". A
// Scenario is an hds.Experiment plus the fingerprint it was resolved from;
// Resolve is the only code that derives one from a flag-level fingerprint
// (trace.Meta — what cmd/hdsim builds from its flags and what a v2 trace
// embeds), and Validate is the one admissibility check. Running one is
// the embedded experiment's Run. cmd/hdsim, offline replay and the hunt
// fuzzer are views of it: hdsim and replay resolve a Meta, hunt fills a
// Scenario from its own JSON form with its own defaults, and all three
// run, verify or render the same value.
package scenario

import (
	"fmt"
	"math"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/fd/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario is one runnable experiment. Resolve fills Net, Horizon and
// Period with the values the run uses, which are what report headers
// print; a zero one (hunt leaves them so) selects the run's own default.
type Scenario struct {
	// Meta is the fingerprint the scenario was resolved from; report
	// headers echo its raw specs. Nil for scenarios not built by Resolve.
	Meta *trace.Meta
	hds.Experiment
}

// Resolve turns a scenario fingerprint into runnable terms with the
// driver's defaulting rules: the base network is Async{MaxDelay: 8},
// -gst>0 switches to PartialSync{gst, delta}, ohp without -net/-gst runs
// on its own PartialSync{gst, delta} (δ=0 meaning 3), an explicit -net
// spec overrides all of that, and partitions wrap the result; horizons
// default to 3,000,000 for consensus, 5,000 for ohp and ten periods for
// heartbeat. Every inadmissible value is rejected here, before anything
// is printed, created or run. Resolve expands no schedule: beyond the
// identifier assignment its cost does not grow with n.
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
		if m.Algo != "fig8" {
			return nil, fmt.Errorf("scenario: -detectors mp stacks Figure 6 under fig8 only, not %q", m.Algo)
		}
		sc.Detectors = hds.MessagePassingDetectors
	default:
		return nil, fmt.Errorf("scenario: unknown detector source %q (want oracle or mp)", m.Detectors)
	}

	var base sim.Model = sim.Async{MaxDelay: 8}
	if m.GST > 0 {
		base = sim.PartialSync{GST: hds.Time(m.GST), Delta: hds.Time(m.Delta)}
	}
	defaultHorizon := hds.Time(3_000_000)
	switch m.Algo {
	case "ohp":
		if m.GST <= 0 {
			delta := hds.Time(m.Delta)
			if delta == 0 {
				delta = 3
			}
			base = sim.PartialSync{GST: hds.Time(m.GST), Delta: delta}
		}
		defaultHorizon = 5000
	case "heartbeat":
		if sc.Period = hds.Time(m.Period); sc.Period == 0 {
			sc.Period = 10
		}
		defaultHorizon = 10 * sc.Period
	}
	if sc.Horizon == 0 {
		sc.Horizon = defaultHorizon
	}
	if sc.Net, err = Network(m.Net, base, windows); err != nil {
		return nil, err
	}
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

// Validate rejects scenarios no run should be handed: an unknown
// algorithm, fault inputs the algorithm has no use for, a negative time or
// count (the run would replace it with its default, and would not be the
// one described), a NaN or infinite churn fraction (NaN slips through
// every comparison downstream), a partition cut that severs nothing or
// never heals inside the run, more beaters than processes. The run keeps
// its own input checks (crash PIDs, the t bound, schedules against the
// horizon); those need the expanded fault pattern, which is built once, by
// the run.
func (sc *Scenario) Validate() error {
	switch sc.Algo {
	case "fig8", "fig9", "fig9-anon":
	case "ohp":
		if sc.Churn.Fraction > 0 && len(sc.Crashes) > 0 {
			return fmt.Errorf("scenario: use either -churn or -crashes for -algo ohp, not both")
		}
	case "heartbeat":
		if len(sc.Crashes) > 0 {
			return fmt.Errorf("scenario: -algo heartbeat takes a -churn spec, not -crashes")
		}
	default:
		return fmt.Errorf("scenario: unknown algorithm %q (want fig8, fig9, fig9-anon, ohp or heartbeat)", sc.Algo)
	}
	type field struct {
		name string
		v    int64
	}
	fields := []field{{"period", sc.Period}, {"horizon", sc.Horizon}, {"stabilize", sc.Stabilize}, {"max-events", int64(sc.MaxEvents)}}
	if m := sc.Meta; m != nil {
		fields = append(fields, field{"gst", m.GST}, field{"delta", m.Delta})
	}
	for _, f := range fields {
		if f.v < 0 {
			return fmt.Errorf("scenario: %s=%d, want >= 0", f.name, f.v)
		}
	}
	if f := sc.Churn.Fraction; math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("scenario: churn fraction %v, want a finite value", f)
	}
	if err := cliutil.ValidateBeaters(sc.Beaters, sc.IDs.N()); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	// Network puts the partition schedule outermost.
	if p, ok := sc.Net.(sim.Partition); ok {
		if err := cliutil.ValidatePartitionN(p.Windows, sc.IDs.N()); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if sc.Horizon > 0 {
			if err := cliutil.ValidatePartitionHorizon(p.Windows, sc.Horizon); err != nil {
				return fmt.Errorf("scenario: %w", err)
			}
		}
	}
	return nil
}
