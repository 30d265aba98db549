package reduce

import (
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

// Relation is one arrow of the paper's Figure 5 diagram (or a composite of
// arrows): an executable reduction whose emulated target detector is
// verified against the target class's axioms on a concrete execution.
type Relation struct {
	From, To string
	Source   string // theorem / lemma / observation in the paper
	Model    string // system model the reduction is stated in
	Run      func(seed int64) (fd.Result, error)
}

// arrow is a Relation's Run: the deployment of stack over ids with the
// given crashes, judged by the target class; the seed varies the adversary.
func arrow[D any](ids ident.Assignment, crashes map[sim.PID]sim.Time, stack Stack[D], target Judge[D]) func(int64) (fd.Result, error) {
	return func(seed int64) (fd.Result, error) {
		out, err := Deployment[D]{IDs: ids, Crashes: crashes, Seed: seed, Stack: stack, Target: target}.Run()
		return out.Result, err
	}
}

// All returns the executable relation matrix: every reduction the paper
// proves, ready to run and verify.
func All() []Relation {
	type crashes = map[sim.PID]sim.Time
	return []Relation{
		{From: "Σ", To: "HΣ", Source: "Theorem 1(1) / Figure 1", Model: "AS[∅], membership known",
			Run: arrow(ident.Unique(5), crashes{1: 40}, StackFig1, JudgeHSigma)},
		{From: "Σ", To: "HΣ", Source: "Theorem 1(2) / Figure 2", Model: "AS[Σ], membership unknown",
			Run: arrow(ident.Unique(5), crashes{3: 60}, StackFig2, JudgeHSigma)},
		{From: "HΣ", To: "Σ", Source: "Theorem 2 / Figure 4 (uses 𝔈 of Lemma 1 / Figure 3)", Model: "AS[HΣ], membership unknown",
			Run: arrow(ident.Unique(5), crashes{0: 50}, StackFig4, JudgeSigma)},
		{From: "AΣ", To: "HΣ", Source: "Theorem 3", Model: "AAS[∅]",
			Run: arrow(ident.AnonymousN(5), crashes{2: 40}, StackThm3, JudgeHSigma)},
		{From: "AP", To: "◇HP̄", Source: "Lemma 2 / Theorem 4", Model: "AAS[∅]",
			Run: arrow(ident.AnonymousN(5), crashes{1: 30, 4: 70}, StackLemma2, JudgeDiamondHPbar)},
		{From: "AP", To: "HΣ", Source: "Lemma 3 / Theorem 4", Model: "AAS[∅]",
			Run: arrow(ident.AnonymousN(5), crashes{0: 35}, StackLemma3, JudgeHSigma)},
		{From: "◇HP̄", To: "HΩ", Source: "Observation 1 / Corollary 2", Model: "HAS[◇HP̄]",
			Run: arrow(ident.Balanced(6, 3), crashes{0: 45}, StackObs1, JudgeHOmega)},
		{From: "Σ", To: "Σ (via HΣ)", Source: "Corollary 1 (composite Fig 2 ∘ Fig 4)", Model: "AS[Σ]",
			Run: arrow(ident.Unique(5), crashes{2: 55}, StackFig2Fig4, JudgeSigma)},
	}
}
