package reduce

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/relation_matrix.txt from the current relations")

// TestRelationMatrix executes every Figure-5 arrow under seeds 1–4,
// verifies the emulated detector satisfies the target class (E5), and
// pins each run's verdict and stabilization time against
// testdata/relation_matrix.txt: E5's table digest only pins the worst of
// the four seeds.
func TestRelationMatrix(t *testing.T) {
	var b strings.Builder
	for _, rel := range All() {
		rel := rel
		t.Run(rel.From+"→"+rel.To, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				res, err := rel.Run(seed)
				verdict := "ok"
				if err != nil {
					verdict = err.Error()
					t.Errorf("seed %d (%s, %s): %v", seed, rel.Source, rel.Model, err)
				}
				fmt.Fprintf(&b, "%s → %s [%s] seed=%d %s stabilization=%d\n",
					rel.From, rel.To, rel.Source, seed, verdict, res.StabilizationTime)
			}
		})
	}
	const path = "testdata/relation_matrix.txt"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("relation matrix changed:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestRelationsRunConcurrently runs every arrow's four seeds on sweep
// workers at once: a row's identity assignment and crash schedule are
// shared by all its runs (E5 puts rows on the same pool), so under -race
// this is the check that a deployment only reads them.
func TestRelationsRunConcurrently(t *testing.T) {
	type job struct {
		rel  Relation
		seed int64
	}
	var jobs []job
	for _, rel := range All() {
		for seed := int64(1); seed <= 4; seed++ {
			jobs = append(jobs, job{rel, seed})
		}
	}
	_, err := sweep.MapErr(sweep.Options{Workers: 4}, jobs, func(_ int, j job) (fd.Result, error) {
		res, err := j.rel.Run(j.seed)
		if err != nil {
			err = fmt.Errorf("%s → %s seed %d: %w", j.rel.From, j.rel.To, j.seed, err)
		}
		return res, err
	})
	if err != nil {
		t.Error(err)
	}
}

// deployed runs one deployment for the wrong-stack table below.
func deployed[D any](ids ident.Assignment, stack Stack[D], target Judge[D]) error {
	_, err := Deployment[D]{IDs: ids, Crashes: map[sim.PID]sim.Time{0: 45}, Seed: 1, Stack: stack, Target: target}.Run()
	return err
}

// blind rebuilds a stack over oracles that believe nobody ever crashes:
// the harness still crashes process 0 and judges against that truth.
func blind[D any](stack Stack[D]) Stack[D] {
	return func(w *oracle.World, node *sim.Node) D {
		return stack(oracle.NewWorld(fd.NewGroundTruth(w.Truth.IDs, nil), w.Stabilize), node)
	}
}

// TestDeploymentRejectsWrongStacks gives the harness its teeth: for each
// target class a deliberately wrong stack goes through Deployment exactly
// as the Figure 5 arrows do, and the class checker's own error must come
// back. The right stack over the same ids and crash passes.
func TestDeploymentRejectsWrongStacks(t *testing.T) {
	cases := []struct {
		name    string
		wantErr string // prefix: the target class checker's own message
		right   func() error
		wrong   func() error
	}{
		// Lemma 3 is stated for anonymous systems; over unique identifiers
		// its ⊥-quora name no process.
		{"HΣ: Lemma 3 over unique ids", "HΣ ",
			func() error { return deployed(ident.AnonymousN(5), StackLemma3, JudgeHSigma) },
			func() error { return deployed(ident.Unique(5), StackLemma3, JudgeHSigma) }},
		// Figure 4 over an HΣ that never learns of the crash keeps
		// trusting the crashed process.
		{"Σ: Figure 4 over a blind HΣ", "Σ ",
			func() error { return deployed(ident.Unique(5), StackFig4, JudgeSigma) },
			func() error { return deployed(ident.Unique(5), blind(StackFig4), JudgeSigma) }},
		// Lemma 2 likewise outputs ⊥^a, never I(Correct) of a unique system.
		{"◇HP̄: Lemma 2 over unique ids", "◇HP̄ ",
			func() error { return deployed(ident.AnonymousN(5), StackLemma2, JudgeDiamondHPbar) },
			func() error { return deployed(ident.Unique(5), StackLemma2, JudgeDiamondHPbar) }},
		// Observation 1 over a ◇HP̄ with another crash set counts the
		// crashed process in the leader identifier's multiplicity.
		{"HΩ: Observation 1 over a blind ◇HP̄", "HΩ",
			func() error { return deployed(ident.Balanced(6, 3), StackObs1, JudgeHOmega) },
			func() error { return deployed(ident.Balanced(6, 3), blind(StackObs1), JudgeHOmega) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.right(); err != nil {
				t.Fatalf("right stack rejected: %v", err)
			}
			err := tc.wrong()
			if err == nil {
				t.Fatal("wrong stack passed the class checker")
			}
			if !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Fatalf("error %q is not the %q checker's", err, tc.wantErr)
			}
		})
	}
}

func TestSubMultisetsContaining(t *testing.T) {
	m := multiset.From[ident.ID]("a", "a", "b")
	subs := SubMultisetsContaining(m, "a")
	// Sub-multisets of {a,a,b}: counts a∈{0,1,2} × b∈{0,1} = 6 total; those
	// containing ≥1 'a': 4: {a}, {a,b}, {a,a}, {a,a,b}.
	if len(subs) != 4 {
		t.Fatalf("got %d sub-multisets, want 4: %v", len(subs), subs)
	}
	keys := make(map[string]bool)
	for _, s := range subs {
		if !s.Contains("a") {
			t.Errorf("sub-multiset %v lacks the mandatory element", s)
		}
		if !s.SubsetOf(m) {
			t.Errorf("sub-multiset %v not ⊆ %v", s, m)
		}
		keys[s.Key()] = true
	}
	if len(keys) != 4 {
		t.Errorf("duplicates in enumeration: %v", subs)
	}
}

func TestSubMultisetsContainingAbsent(t *testing.T) {
	m := multiset.From[ident.ID]("a")
	if subs := SubMultisetsContaining(m, "z"); len(subs) != 0 {
		t.Errorf("got %v for an absent identifier, want none", subs)
	}
}

func TestSubMultisetsContainingSingleton(t *testing.T) {
	m := multiset.From[ident.ID]("x")
	subs := SubMultisetsContaining(m, "x")
	if len(subs) != 1 || !subs[0].Equal(m) {
		t.Errorf("got %v, want just {x}", subs)
	}
}
