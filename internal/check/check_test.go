package check

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

func truth(n int, crashed ...sim.PID) *fd.GroundTruth {
	ct := make(map[sim.PID]sim.Time)
	for _, p := range crashed {
		ct[p] = 10
	}
	return fd.NewGroundTruth(ident.Unique(n), ct)
}

func dec(v core.Value, round int, at sim.Time) core.Outcome {
	return core.Outcome{Decided: true, Value: v, Round: round, Time: at}
}

func TestConsensusHappyPath(t *testing.T) {
	g := truth(3, 1)
	props := []core.Value{"a", "b", "c"}
	outs := []core.Outcome{dec("b", 2, 50), {}, dec("b", 1, 40)}
	rep, err := Consensus(g, props, outs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value != "b" || rep.Deciders != 2 || rep.MaxRound != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.FirstDecision != 40 || rep.LastDecision != 50 {
		t.Errorf("decision times = %d..%d", rep.FirstDecision, rep.LastDecision)
	}
}

func TestConsensusViolations(t *testing.T) {
	g := truth(3)
	props := []core.Value{"a", "b", "c"}
	tests := []struct {
		name string
		outs []core.Outcome
		want string
	}{
		{"termination", []core.Outcome{dec("a", 1, 5), dec("a", 1, 5), {}}, "termination"},
		{"agreement", []core.Outcome{dec("a", 1, 5), dec("b", 1, 5), dec("a", 1, 5)}, "agreement"},
		{"validity", []core.Outcome{dec("z", 1, 5), dec("z", 1, 5), dec("z", 1, 5)}, "validity"},
		{"bottom", []core.Outcome{dec(core.Bottom, 1, 5), dec(core.Bottom, 1, 5), dec(core.Bottom, 1, 5)}, "⊥"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Consensus(g, props, tt.outs)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want containing %q", err, tt.want)
			}
		})
	}
}

func TestConsensusCrashedDeciderMustAgree(t *testing.T) {
	// Uniform agreement: a process that decided before crashing still
	// counts.
	g := truth(3, 0)
	props := []core.Value{"a", "b", "c"}
	outs := []core.Outcome{dec("a", 1, 5), dec("b", 1, 9), dec("b", 1, 9)}
	if _, err := Consensus(g, props, outs); err == nil {
		t.Error("disagreeing crashed decider accepted")
	}
}

func TestConsensusLengthMismatch(t *testing.T) {
	g := truth(2)
	if _, err := Consensus(g, []core.Value{"a"}, make([]core.Outcome, 2)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func relayed(v core.Value, round int, at sim.Time) core.Outcome {
	out := dec(v, round, at)
	out.Relayed = true
	return out
}

// TestConsensusRoundAgreement pins the relayed-round bugfix: a relayed
// decision must name a round in which some process decided through its own
// quorum — the receiver's local round (what the old code recorded) does
// not qualify.
func TestConsensusRoundAgreement(t *testing.T) {
	g := truth(3)
	props := []core.Value{"a", "b", "c"}
	// Origin decided in round 2; both relays carry round 2 → fine.
	if _, err := Consensus(g, props, []core.Outcome{dec("a", 2, 5), relayed("a", 2, 8), relayed("a", 2, 9)}); err != nil {
		t.Fatalf("matching relayed rounds rejected: %v", err)
	}
	// A relay reporting round 3 — no quorum decision there — must fail.
	_, err := Consensus(g, props, []core.Outcome{dec("a", 2, 5), relayed("a", 3, 8), relayed("a", 2, 9)})
	if err == nil || !strings.Contains(err.Error(), "round agreement") {
		t.Fatalf("err = %v, want round-agreement violation", err)
	}
	// Two genuine quorum decisions in different rounds are legal, and
	// relays may descend from either.
	if _, err := Consensus(g, props, []core.Outcome{dec("a", 2, 5), dec("a", 3, 7), relayed("a", 3, 9)}); err != nil {
		t.Fatalf("multi-round quorum decisions rejected: %v", err)
	}
}

// TestSafety: undecided processes are no failure, whoever decided must
// still satisfy Validity, Agreement, no-⊥ and round agreement.
func TestSafety(t *testing.T) {
	props := []core.Value{"a", "b", "c"}
	if err := Safety(props, []core.Outcome{{}, dec("b", 2, 5), {}}); err != nil {
		t.Fatalf("undecided processes rejected: %v", err)
	}
	if err := Safety(props, make([]core.Outcome, 3)); err != nil {
		t.Fatalf("a run with no decision rejected: %v", err)
	}
	for _, tc := range []struct {
		want string
		outs []core.Outcome
	}{
		{"validity", []core.Outcome{dec("z", 1, 5), {}, {}}},
		{"agreement", []core.Outcome{dec("a", 1, 5), dec("b", 1, 6), {}}},
		{"decided ⊥", []core.Outcome{{}, dec(core.Bottom, 1, 5), {}}},
		{"round agreement", []core.Outcome{dec("a", 2, 5), relayed("a", 3, 8), {}}},
	} {
		if err := Safety(props, tc.outs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v", tc.want, err)
		}
	}
}

// churnTruth builds a crash-recovery pattern: every listed process crashes
// at 10 and recovers at 60, except those also listed in finalDown.
func churnTruth(n int, churners []sim.PID, finalDown ...sim.PID) *fd.GroundTruth {
	down := make(map[sim.PID]bool, len(finalDown))
	for _, p := range finalDown {
		down[p] = true
	}
	var evs []sim.ChurnEvent
	for _, p := range churners {
		evs = append(evs, sim.ChurnEvent{P: p, At: 10})
		if !down[p] {
			evs = append(evs, sim.ChurnEvent{P: p, At: 60, Recover: true})
		}
	}
	return fd.NewGroundTruthFromChurn(ident.Unique(n), evs)
}

// TestConsensusChurnTermination: Termination quantifies over the
// eventually-up set — a recovered churner must decide, a final-down one is
// exempt.
func TestConsensusChurnTermination(t *testing.T) {
	props := []core.Value{"a", "b", "c", "d"}
	g := churnTruth(4, []sim.PID{1, 2}, 2) // p1 recovers, p2 stays down
	// p2 undecided is fine; everyone else decided.
	if _, err := ConsensusChurn(g, props, []core.Outcome{dec("a", 1, 5), dec("a", 1, 70), {}, dec("a", 1, 6)}); err != nil {
		t.Fatalf("eventually-up deciders rejected: %v", err)
	}
	// The recovered churner p1 not deciding violates churn Termination...
	_, err := ConsensusChurn(g, props, []core.Outcome{dec("a", 1, 5), {}, {}, dec("a", 1, 6)})
	if err == nil || !strings.Contains(err.Error(), "eventually-up") {
		t.Fatalf("err = %v, want eventually-up termination violation", err)
	}
	// ...while the crash-stop checker would also demand it of nobody else:
	// the same outcomes pass the strict reading, whose Correct set excludes
	// both churners.
	if _, err := Consensus(g, props, []core.Outcome{dec("a", 1, 5), {}, {}, dec("a", 1, 6)}); err != nil {
		t.Fatalf("crash-stop reading rejected churner non-decision: %v", err)
	}
}

func TestDecisionMonitor(t *testing.T) {
	mon := NewDecisionMonitor()
	mon.Observe(0, core.Outcome{})
	mon.Observe(0, dec("a", 2, 5))
	mon.Observe(0, dec("a", 2, 5))
	if err := mon.Err(); err != nil {
		t.Fatalf("stable decision flagged: %v", err)
	}
	// A decision disappearing (e.g. wiped by a recovery path) is an error.
	mon.Observe(0, core.Outcome{})
	if err := mon.Err(); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("err = %v, want lost-decision violation", err)
	}
	// A changed decision likewise.
	mon2 := NewDecisionMonitor()
	mon2.Observe(1, dec("a", 2, 5))
	mon2.Observe(1, dec("b", 2, 6))
	if err := mon2.Err(); err == nil || !strings.Contains(err.Error(), "changed") {
		t.Fatalf("err = %v, want changed-decision violation", err)
	}
	mon3 := NewDecisionMonitor()
	mon3.Observe(2, dec("a", 2, 5))
	mon3.Observe(2, dec("a", 3, 5))
	if err := mon3.Err(); err == nil {
		t.Fatal("changed decision round accepted")
	}
}
