package reduce

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/multiset"
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
