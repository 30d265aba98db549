package check

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/sim"
)

// Report aggregates a verified execution's headline numbers.
type Report struct {
	Value         core.Value
	MaxRound      int      // largest decision round among deciders
	LastDecision  sim.Time // virtual time of the last decision Termination demands
	FirstDecision sim.Time
	Deciders      int
}

// Consensus verifies one crash-stop execution: outcomes[p] is process p's
// outcome, proposals[p] its proposal, truth the fault pattern. Crashed
// processes may or may not have decided; if they did, their decisions must
// still agree (uniform agreement, which both algorithms provide via the
// PH2 quorum logic and which the paper's Agreement property demands for
// all decided values). Termination quantifies over the correct (never
// crashing) processes.
func Consensus(truth *fd.GroundTruth, proposals []core.Value, outcomes []core.Outcome) (Report, error) {
	return consensus(truth.Correct(), "correct", proposals, outcomes)
}

// ConsensusChurn restates the consensus properties for crash-recovery
// executions: Validity, Agreement and the round-agreement check are
// unchanged (they range over every decided value, crashed, recovered or
// not), but Termination is quantified over the eventually-up processes —
// under churn a recovered process rejoins the computation, so it too must
// decide; only the permanently-down are exempt. Decision survival across
// outages (a decision taken before a crash must still be reported after
// the recovery) is a run-time property; drivers verify it with a
// DecisionMonitor, since final outcomes alone cannot reveal a decision
// that was lost and re-taken identically.
func ConsensusChurn(truth *fd.GroundTruth, proposals []core.Value, outcomes []core.Outcome) (Report, error) {
	return consensus(truth.EventuallyUp(), "eventually-up", proposals, outcomes)
}

// Safety checks Validity, Agreement, no-⊥ and round agreement over
// whoever decided, and demands no Termination: the verdict for runs cut
// short on purpose (a round cap, an ablation), where undecided processes
// are expected and only a wrong decision is a failure.
func Safety(proposals []core.Value, outcomes []core.Outcome) error {
	_, err := consensus(nil, "", proposals, outcomes)
	return err
}

// consensus checks Validity, Agreement, round agreement, and Termination
// over the `must` set (whose elements the caller names with class, for
// error messages).
func consensus(must []sim.PID, class string, proposals []core.Value, outcomes []core.Outcome) (Report, error) {
	if len(proposals) != len(outcomes) {
		return Report{}, fmt.Errorf("check: %d proposals vs %d outcomes", len(proposals), len(outcomes))
	}
	proposed := make(map[core.Value]bool, len(proposals))
	for _, v := range proposals {
		proposed[v] = true
	}

	var rep Report
	var decidedVal core.Value
	haveVal := false
	originRounds := make(map[int]bool)
	for p, out := range outcomes {
		if !out.Decided {
			continue
		}
		if out.Value == core.Bottom {
			return Report{}, fmt.Errorf("check: process %d decided ⊥", p)
		}
		if !proposed[out.Value] {
			return Report{}, fmt.Errorf("check: validity violated — process %d decided %q, never proposed", p, out.Value)
		}
		if haveVal && out.Value != decidedVal {
			return Report{}, fmt.Errorf("check: agreement violated — %q vs %q", decidedVal, out.Value)
		}
		decidedVal, haveVal = out.Value, true
		if !out.Relayed {
			originRounds[out.Round] = true
		}
		rep.Deciders++
		if out.Round > rep.MaxRound {
			rep.MaxRound = out.Round
		}
		if rep.FirstDecision == 0 || out.Time < rep.FirstDecision {
			rep.FirstDecision = out.Time
		}
	}

	// Round agreement: a relayed decision must report the round the
	// decision was actually reached in, i.e. the round of some process that
	// decided through its own Phase 2 quorum. (Distinct quorum decisions in
	// different rounds are legal — they already agree on the value — but a
	// relayed round naming no quorum decision means the relay recorded the
	// receiver's local round instead of the deciding one.)
	for p, out := range outcomes {
		if out.Decided && out.Relayed && !originRounds[out.Round] {
			return Report{}, fmt.Errorf("check: round agreement violated — process %d reports a relayed decision in round %d, but no process decided in that round", p, out.Round)
		}
	}

	for _, p := range must {
		out := outcomes[p]
		if !out.Decided {
			return Report{}, fmt.Errorf("check: termination violated — %s process %d did not decide", class, p)
		}
		if out.Time > rep.LastDecision {
			rep.LastDecision = out.Time
		}
	}
	rep.Value = decidedVal
	return rep, nil
}

// DecisionMonitor asserts decision stability over a running execution:
// once a process reports a decision, every later observation must report
// the same (value, round) — in particular across crashes and recoveries,
// pinning the crash-recovery property that a decision taken before an
// outage survives it. Drivers feed it from sim.Engine.AfterEvent:
//
//	mon := check.NewDecisionMonitor()
//	eng.AfterEvent(func(_ sim.Time, p sim.PID) {
//		if p >= 0 {
//			mon.Observe(p, insts[p].Decided())
//		}
//	})
//
// and read Err after the run.
type DecisionMonitor struct {
	seen map[sim.PID]core.Outcome
	err  error
}

// NewDecisionMonitor builds an empty monitor.
func NewDecisionMonitor() *DecisionMonitor {
	return &DecisionMonitor{seen: make(map[sim.PID]core.Outcome)}
}

// Observe records process p's current outcome; the first decided
// observation is pinned and any later divergence is an error.
func (m *DecisionMonitor) Observe(p sim.PID, out core.Outcome) {
	if m.err != nil {
		return
	}
	prev, ok := m.seen[p]
	if !ok {
		if out.Decided {
			m.seen[p] = out
		}
		return
	}
	switch {
	case !out.Decided:
		m.err = fmt.Errorf("check: process %d lost its decision %q (round %d) — decisions must survive crashes and recoveries", p, prev.Value, prev.Round)
	case out.Value != prev.Value || out.Round != prev.Round:
		m.err = fmt.Errorf("check: process %d changed its decision from %q (round %d) to %q (round %d)", p, prev.Value, prev.Round, out.Value, out.Round)
	}
}

// Err reports the first stability violation observed (nil in correct runs).
func (m *DecisionMonitor) Err() error {
	return m.err
}
