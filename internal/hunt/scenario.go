package hunt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// Kinds a Scenario can run, in canonical order (mutators cycle through
// this list; keep it sorted the way the CLI documents the algorithms).
var Kinds = []string{"fig8", "fig9", "fig9-anon", "ohp", "heartbeat"}

// CrashEntry is one permanent crash-stop entry. Scenarios carry crashes
// as a PID-sorted slice, not a map, so their JSON form and fingerprint
// are canonical.
type CrashEntry struct {
	P  sim.PID  `json:"p"`
	At sim.Time `json:"at"`
}

// Scenario is one complete, runnable experiment configuration: everything
// the verdict depends on, and nothing else. It is the unit the fuzzer
// mutates, the shrinker reduces, and the corpus checks in — so every
// field is plain data with a canonical encoding.
type Scenario struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	L    int    `json:"l"`
	// T is fig8's crash budget; ignored by the other kinds.
	T    int   `json:"t,omitempty"`
	Seed int64 `json:"seed"`
	// Horizon of 0 means the runner's default.
	Horizon sim.Time      `json:"horizon,omitempty"`
	Churn   sim.ChurnSpec `json:"churn,omitempty"`
	Crashes []CrashEntry  `json:"crashes,omitempty"`
	// Net is a cliutil.ParseNet spec; "" means the runner's default.
	Net        string                `json:"net,omitempty"`
	Partitions []sim.PartitionWindow `json:"partitions,omitempty"`
	// Adversary is none, rotate, or split ("" = rotate, the CLI default).
	Adversary string   `json:"adversary,omitempty"`
	Stabilize sim.Time `json:"stabilize,omitempty"`
	// MaxEvents overrides the engine's runaway guard where the runner
	// supports it (churn consensus, heartbeat). Mutators leave it 0: a
	// tight cap turns every scenario into a guard "failure".
	MaxEvents int `json:"maxEvents,omitempty"`
	// Period is the heartbeat beat interval (heartbeat only; 0 = default).
	Period sim.Time `json:"period,omitempty"`
}

// Fingerprint is the scenario's canonical one-line form, used in campaign
// logs and coverage bookkeeping. Two scenarios with equal fingerprints run
// identically.
func (s Scenario) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%s n=%d l=%d", s.Kind, s.N, s.L)
	if s.Kind == "fig8" {
		fmt.Fprintf(&b, " t=%d", s.T)
	}
	fmt.Fprintf(&b, " seed=%d", s.Seed)
	if s.Horizon != 0 {
		fmt.Fprintf(&b, " horizon=%d", s.Horizon)
	}
	if s.Churn.Fraction > 0 {
		fmt.Fprintf(&b, " churn=%.2f:%d:%d:%d:%d", s.Churn.Fraction, s.Churn.Cycles, s.Churn.Start, s.Churn.Down, s.Churn.Stagger)
		if s.Churn.FinalDown {
			b.WriteString(":final")
		}
	}
	for _, c := range s.Crashes {
		fmt.Fprintf(&b, " crash=%d@%d", c.P, c.At)
	}
	if s.Net != "" {
		fmt.Fprintf(&b, " net=%s", s.Net)
	}
	for _, w := range s.Partitions {
		fmt.Fprintf(&b, " part=%d-%d@%d", w.From, w.To, w.Cut)
	}
	if s.Adversary != "" && s.Adversary != "rotate" {
		fmt.Fprintf(&b, " adv=%s", s.Adversary)
	}
	if s.Stabilize != 0 {
		fmt.Fprintf(&b, " stab=%d", s.Stabilize)
	}
	if s.MaxEvents != 0 {
		fmt.Fprintf(&b, " maxev=%d", s.MaxEvents)
	}
	if s.Period != 0 {
		fmt.Fprintf(&b, " period=%d", s.Period)
	}
	return b.String()
}

// Size is the shrinker's metric. It is documented here because shrink
// soundness is stated against it: an accepted reduction must be strictly
// smaller under Size. Population dominates (fewer processes always beats
// anything else), then identifier count, then schedule entries, then
// churn cycles, then non-default knobs, then schedule magnitudes — so the
// greedy shrinker's fixed point is a scenario where no single candidate
// reduction preserves the failure.
func (s Scenario) Size() int {
	size := 1_000_000*s.N + 50_000*s.L
	size += 10_000 * (len(s.Crashes) + len(s.Partitions))
	if s.Churn.Fraction > 0 {
		cycles := s.Churn.Cycles
		if cycles <= 0 {
			cycles = 1
		}
		size += 1_000 * cycles
		size += int(s.Churn.Stagger + s.Churn.Down + s.Churn.Up)
		if s.Churn.FinalDown {
			size += 100
		}
	}
	for _, knob := range []bool{
		s.Net != "",
		s.Adversary != "" && s.Adversary != "rotate",
		s.Stabilize != 0,
		s.Horizon != 0,
		s.MaxEvents != 0,
		s.Period != 0,
	} {
		if knob {
			size += 100
		}
	}
	return size
}

// Clone deep-copies the scenario (the slices are the only shared state).
func (s Scenario) Clone() Scenario {
	c := s
	c.Crashes = append([]CrashEntry(nil), s.Crashes...)
	c.Partitions = append([]sim.PartitionWindow(nil), s.Partitions...)
	return c
}

// lastScheduleEvent returns the latest instant of the combined fault and
// partition schedule — the time by which every outage has healed and every
// window has closed.
func (s Scenario) lastScheduleEvent() sim.Time {
	var last sim.Time
	for _, ev := range s.Churn.Events(s.N) {
		if ev.At > last {
			last = ev.At
		}
	}
	for _, c := range s.Crashes {
		if c.At > last {
			last = c.At
		}
	}
	if e := sim.LastWindowEnd(s.Partitions); e > last {
		last = e
	}
	return last
}

// resolve fills the runnable scenario directly from the JSON form — no
// round trip through flag strings, which cannot express every ChurnSpec
// field. hunt's defaults are not the driver's: zero Horizon, Stabilize,
// Period and MaxEvents keep meaning "the runner's default", an empty net
// spec leaves the model to the runner (nil), and partition windows over
// an empty spec cut an Async{MaxDelay: 8} base.
func (s Scenario) resolve() (*scenario.Scenario, error) {
	ids, err := scenario.BalancedIDs(s.N, s.L)
	if err != nil {
		return nil, err
	}
	var base sim.Model
	if len(s.Partitions) > 0 {
		base = sim.Async{MaxDelay: 8}
	}
	net, err := scenario.Network(s.Net, base, s.Partitions)
	if err != nil {
		return nil, err
	}
	adv, err := scenario.ParseAdversary(s.Adversary)
	if err != nil {
		return nil, err
	}
	sc := &scenario.Scenario{
		Algo: s.Kind, IDs: ids, T: s.T, Churn: s.Churn, Net: net, Horizon: s.Horizon,
		Stabilize: s.Stabilize, Adversary: adv, Period: s.Period, MaxEvents: s.MaxEvents,
	}
	if len(s.Crashes) > 0 {
		sc.Crashes = make(map[sim.PID]sim.Time, len(s.Crashes))
		for _, c := range s.Crashes {
			sc.Crashes[c.P] = c.At
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Validate rejects scenarios without a canonical form and scenarios the
// resolver rejects; Run also surfaces runner errors as class "config", so
// Validate exists mainly for corpus hygiene and cmd/hunt -run.
func (s Scenario) Validate() error {
	if !sort.SliceIsSorted(s.Crashes, func(i, j int) bool { return s.Crashes[i].P < s.Crashes[j].P }) {
		return fmt.Errorf("hunt: crash entries not sorted by pid — the scenario has no canonical form")
	}
	for i := 1; i < len(s.Crashes); i++ {
		if s.Crashes[i].P == s.Crashes[i-1].P {
			return fmt.Errorf("hunt: duplicate crash entry for pid %d", s.Crashes[i].P)
		}
	}
	if _, err := s.resolve(); err != nil {
		return fmt.Errorf("hunt: %w", err)
	}
	return nil
}

// lossCapable reports whether a scenario's network model can drop
// in-flight copies between live processes (beyond the drops every churn
// run has, to crashed recipients). persistent means the loss never stops
// (a Lossy wrap, or an Alternating model that never calms); transient
// means it heals (partition windows, pre-GST loss, calming bad windows).
// The distinction matters because the detectors tolerate transient loss
// (they re-broadcast forever) but nothing is promised under loss that
// never ends.
func lossCapable(m sim.Model) (persistent, transient bool) {
	for m != nil {
		switch v := m.(type) {
		case sim.Partition:
			if len(v.Windows) > 0 {
				transient = true
			}
			m = v.Base
		case sim.Lossy:
			if v.P > 0 {
				persistent = true
			}
			m = v.Base
		case sim.AsymmetricLinks:
			m = v.Base
		case sim.PartialSync:
			if v.PreLoss > 0 {
				transient = true
			}
			m = nil
		case sim.Alternating:
			if v.BadLoss > 0 {
				if v.CalmAfter > 0 {
					transient = true
				} else {
					persistent = true
				}
			}
			m = nil
		default:
			m = nil
		}
	}
	return persistent, transient
}

// Run executes the scenario through the repository's verified runners and
// classifies the result. It never panics on a malformed scenario: runner
// rejections come back as class "config" outcomes, which the fuzzer
// treats as dead mutants rather than findings.
//
// Liveness failures that the scenario's own loss model explains are
// downgraded to ClassLossLiveness (see that constant's comment): the
// consensus algorithms broadcast each phase message once and are only
// live over reliable links, and nothing stabilizes under loss that never
// ends. Safety failures always keep their class.
func (s Scenario) Run() Outcome {
	sc, err := s.resolve()
	if err != nil {
		return configOutcome(err)
	}
	res, err := sc.Run(s.Seed, nil)
	churn := s.Churn.Fraction > 0
	var o Outcome
	switch s.Kind {
	case "ohp":
		o = ohpOutcome(res.OHP, err, churn)
	case "heartbeat":
		o = heartbeatOutcome(res.Heartbeat, err)
	default:
		o = consensusOutcome(res.Consensus, err, churn)
	}
	persistent, transient := lossCapable(sc.Net)
	expected := false
	switch s.Kind {
	case "fig8", "fig9", "fig9-anon":
		// Any injected loss can swallow a once-only phase broadcast.
		expected = o.Class == ClassTermination && (persistent || transient)
	case "ohp":
		// The detector re-broadcasts forever, so it must survive loss
		// that heals; only never-ending loss excuses it.
		expected = o.Class == ClassDetector && persistent
	case "heartbeat":
		// Delivery liveness is judged over the whole run, so both kinds
		// of injected loss can starve a listener without a bug.
		expected = o.Class == ClassLiveness && (persistent || transient)
	}
	if expected {
		o.Class = ClassLossLiveness
		o.Verdict = fmt.Sprintf("FAIL class=%s err=%q", ClassLossLiveness, o.Err)
	}
	return o
}
