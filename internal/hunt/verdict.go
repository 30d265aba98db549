package hunt

import (
	"fmt"
	"strings"

	hds "repro"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Failure classes, ordered roughly by severity. Class is the shrinker's
// failure signature: a reduction is accepted only if the reduced scenario
// fails with the same class.
const (
	ClassTermination     = "termination"
	ClassAgreement       = "agreement"
	ClassValidity        = "validity"
	ClassRoundAgreement  = "round-agreement"
	ClassDecisionMonitor = "decision-monitor"
	ClassDetector        = "detector"
	ClassLiveness        = "liveness"
	ClassTruthDrift      = "truth-drift"
	ClassGuard           = "guard"
	ClassInvariant       = "invariant"
	// ClassLossLiveness marks liveness failures attributable to message
	// loss the scenario itself injects. The paper's algorithms assume
	// reliable links for liveness (HAS), and the cores broadcast each
	// phase message exactly once — so a lossy or partitioned consensus
	// run that fails Termination witnesses the model hypothesis, not a
	// bug. Scenario.Run downgrades those failures to this class; the
	// fuzzer explores them for coverage and the corpus can pin them as
	// documentation, but they are never reported as findings. Safety
	// violations (agreement, validity, decision stability) are NEVER
	// downgraded: loss must not break safety.
	ClassLossLiveness = "loss-liveness"
	// ClassConfig marks runner input rejections — not bugs, dead mutants.
	ClassConfig = "config"
)

// Outcome is the classified result of one scenario run. Verdict is the
// canonical one-line form the corpus pins byte-for-byte; the remaining
// fields feed coverage bucketing.
type Outcome struct {
	OK      bool
	Class   string // "" when OK
	Err     string // full error text when !OK
	Verdict string
	Round   int // decision-round depth (consensus kinds)
	Stop    string
	Stats   trace.Stats
}

// Failed reports whether the outcome is a verification failure (of any
// class, including expected loss-liveness ones) rather than a rejected
// configuration. The shrinker works on Failed outcomes.
func (o Outcome) Failed() bool { return !o.OK && o.Class != ClassConfig }

// Reportable reports whether the outcome is a finding: a verification
// failure that is not an expected consequence of scenario-injected loss.
// The fuzzer reports and shrinks Reportable outcomes.
func (o Outcome) Reportable() bool { return o.Failed() && o.Class != ClassLossLiveness }

// Classify maps a runner error to a failure class by its message shape.
// The mapping is on stable prefixes of the repository's own error
// vocabulary; anything unrecognised is an invariant-class finding (an
// error nobody taught the hunter about is still a failure).
func Classify(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	switch {
	case strings.HasPrefix(msg, "scenario:"), strings.HasPrefix(msg, "hunt:"), strings.HasPrefix(msg, "cliutil:"):
		// Resolver rejections quote their input, so they are matched
		// before the substring cases below can see it.
		return ClassConfig
	case strings.Contains(msg, "check: termination violated"):
		return ClassTermination
	case strings.Contains(msg, "check: agreement violated"):
		return ClassAgreement
	case strings.Contains(msg, "check: validity violated"):
		return ClassValidity
	case strings.Contains(msg, "check: round agreement violated"):
		return ClassRoundAgreement
	case strings.Contains(msg, "changed its decision"),
		strings.Contains(msg, "lost its decision"),
		strings.Contains(msg, "decided ⊥"):
		return ClassDecisionMonitor
	case strings.HasPrefix(msg, "fd:"),
		strings.Contains(msg, " liveness:"),
		strings.Contains(msg, " safety:"),
		strings.Contains(msg, " election:"):
		// The detector checkers speak in class properties ("◇HP̄
		// liveness: …", "HΩ election: …", "Σ safety: …").
		return ClassDetector
	case strings.Contains(msg, "heard no beats"):
		return ClassLiveness
	case strings.Contains(msg, "disagrees with ground truth"):
		return ClassTruthDrift
	case strings.Contains(msg, "truncated by the MaxEvents guard"):
		return ClassGuard
	case strings.Contains(msg, "internal invariant"):
		return ClassInvariant
	case strings.HasPrefix(msg, "hds:"):
		return ClassConfig
	default:
		return ClassInvariant
	}
}

func failOutcome(err error, stats trace.Stats, stop string) Outcome {
	class := Classify(err)
	return Outcome{
		Class:   class,
		Err:     err.Error(),
		Verdict: fmt.Sprintf("FAIL class=%s err=%q", class, err.Error()),
		Stop:    stop,
		Stats:   stats,
	}
}

func configOutcome(err error) Outcome {
	return Outcome{
		Class:   ClassConfig,
		Err:     err.Error(),
		Verdict: fmt.Sprintf("FAIL class=%s err=%q", ClassConfig, err.Error()),
	}
}

// churnFields returns what a churn outcome carries and a crash-stop one
// does not: the stop reason, and the fault-pattern fields of the verdict
// (placed between its family fields and its traffic counts).
func churnFields(churn bool, stopped sim.StopReason, up, rec int) (stop, fault string) {
	if !churn {
		return "", ""
	}
	stop = stopped.String()
	return stop, fmt.Sprintf(" up=%d rec=%d stop=%s", up, rec, stop)
}

func traffic(s trace.Stats) string {
	return fmt.Sprintf(" bcast=%d deliv=%d drop=%d", s.Broadcasts, s.Delivered, s.Dropped)
}

func consensusOutcome(res hds.ConsensusResult, err error, churn bool) Outcome {
	if err != nil && churn {
		// A failed churn run buckets as never run, with zero stats: campaign
		// evolution for a given (seeds, seed, budget) is a function of the
		// coverage keys, so the bucketing stays what it was when the churn
		// runners returned nothing on failure.
		res = hds.ConsensusResult{}
	}
	stop, fault := churnFields(churn, res.Stopped, res.EventuallyUp, res.Recoveries)
	if err != nil {
		return failOutcome(err, res.Stats, stop)
	}
	rep := res.Report
	return Outcome{
		OK:    true,
		Round: rep.MaxRound,
		Stop:  stop,
		Stats: res.Stats,
		Verdict: fmt.Sprintf("PASS rounds=%d deciders=%d span=%d..%d value=%q",
			rep.MaxRound, rep.Deciders, rep.FirstDecision, rep.LastDecision, rep.Value) + fault + traffic(res.Stats),
	}
}

func ohpOutcome(res hds.OHPResult, err error, churn bool) Outcome {
	stop, fault := churnFields(churn, res.Stopped, res.EventuallyUp, res.Recoveries)
	if err != nil {
		return failOutcome(err, res.Stats, stop)
	}
	return Outcome{
		OK:    true,
		Stop:  stop,
		Stats: res.Stats,
		Verdict: fmt.Sprintf("PASS trusted=%d leader=%d", res.TrustedStabilization, res.LeaderStabilization) +
			fault + traffic(res.Stats),
	}
}

func heartbeatOutcome(res hds.HeartbeatResult, err error) Outcome {
	stop := res.Stopped.String()
	if err != nil {
		return failOutcome(err, res.Stats, stop)
	}
	return Outcome{
		OK:    true,
		Stop:  stop,
		Stats: res.Stats,
		Verdict: fmt.Sprintf("PASS up=%d rec=%d proc=%d stop=%s deliv=%d drop=%d",
			res.EventuallyUp, res.Recoveries, res.Processed, stop,
			res.Stats.Delivered, res.Stats.Dropped),
	}
}
