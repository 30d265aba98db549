package fd

import (
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

func ms(ids ...ident.ID) *multiset.Multiset[ident.ID] { return multiset.From(ids...) }

func truth3AAB(crashed ...sim.PID) *GroundTruth {
	// The paper's running example: Π = {1,2,3}, id(1)=A, id(2)=A, id(3)=B.
	ct := make(map[sim.PID]sim.Time)
	for _, p := range crashed {
		ct[p] = 10
	}
	return NewGroundTruth(ident.Assignment{"A", "A", "B"}, ct)
}

func hist[T any](vals ...T) []Sample[T] {
	out := make([]Sample[T], len(vals))
	for i, v := range vals {
		out[i] = Sample[T]{Time: sim.Time(i + 1), Value: v}
	}
	return out
}

func TestGroundTruthBasics(t *testing.T) {
	g := truth3AAB(1)
	if got := g.Correct(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Correct = %v", got)
	}
	if !g.CorrectIDs().Equal(ms("A", "B")) {
		t.Errorf("CorrectIDs = %v", g.CorrectIDs())
	}
	if got := g.AliveAt(5); len(got) != 3 {
		t.Errorf("AliveAt(5) = %v, want all 3 (crash at 10)", got)
	}
	if got := g.AliveAt(10); len(got) != 2 {
		t.Errorf("AliveAt(10) = %v, want 2", got)
	}
	li, ok := g.ExpectedLeader()
	if !ok || li.ID != "A" || li.Multiplicity != 1 {
		t.Errorf("ExpectedLeader = %v, %v", li, ok)
	}
	if g.LastCrashTime() != 10 {
		t.Errorf("LastCrashTime = %d", g.LastCrashTime())
	}
}

func TestCheckDiamondHPbar(t *testing.T) {
	g := truth3AAB(1)
	good := NewStaticProbe([][]Sample[*multiset.Multiset[ident.ID]]{
		hist(ms("A", "A", "B"), ms("A", "B")),
		nil, // crashed: no requirement
		hist(ms("A", "B")),
	})
	res, err := CheckDiamondHPbar(g, good)
	if err != nil {
		t.Fatalf("good history rejected: %v", err)
	}
	if res.StabilizationTime != 2 {
		t.Errorf("StabilizationTime = %d, want 2", res.StabilizationTime)
	}

	bad := NewStaticProbe([][]Sample[*multiset.Multiset[ident.ID]]{
		hist(ms("A", "A", "B")), // never converges to I(Correct)
		nil,
		hist(ms("A", "B")),
	})
	if _, err := CheckDiamondHPbar(g, bad); err == nil {
		t.Error("non-converged history accepted")
	}
}

func TestCheckHOmega(t *testing.T) {
	g := truth3AAB(1)
	good := NewStaticProbe([][]Sample[LeaderInfo]{
		hist(LeaderInfo{"B", 9}, LeaderInfo{"A", 1}),
		nil,
		hist(LeaderInfo{"A", 1}),
	})
	if _, err := CheckHOmega(g, good); err != nil {
		t.Fatalf("good history rejected: %v", err)
	}

	tests := []struct {
		name string
		p0   LeaderInfo
		p2   LeaderInfo
		want string
	}{
		{"disagree", LeaderInfo{"A", 1}, LeaderInfo{"B", 1}, "disagree"},
		{"faulty leader elected", LeaderInfo{"Z", 1}, LeaderInfo{"Z", 1}, "not the identifier"},
		{"wrong multiplicity", LeaderInfo{"A", 2}, LeaderInfo{"A", 2}, "multiplicity"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pr := NewStaticProbe([][]Sample[LeaderInfo]{hist(tt.p0), nil, hist(tt.p2)})
			_, err := CheckHOmega(g, pr)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want containing %q", err, tt.want)
			}
		})
	}
}

func TestCheckHOmegaMultiplicityCountsCorrectOnly(t *testing.T) {
	// id A held by p0 (correct) and p1 (faulty): multiplicity must be 1.
	g := truth3AAB(1)
	pr := NewStaticProbe([][]Sample[LeaderInfo]{
		hist(LeaderInfo{"A", 1}),
		hist(LeaderInfo{"A", 2}), // faulty process's output is unconstrained
		hist(LeaderInfo{"A", 1}),
	})
	if _, err := CheckHOmega(g, pr); err != nil {
		t.Fatalf("faulty process output should be ignored: %v", err)
	}
}

func TestCheckSigma(t *testing.T) {
	// Unique ids, 4 processes, p3 crashes.
	g := NewGroundTruth(ident.Unique(4), map[sim.PID]sim.Time{3: 5})
	ids := g.IDs
	maj1 := ms(ids[0], ids[1])
	maj2 := ms(ids[1], ids[2])
	good := NewStaticProbe([][]Sample[*multiset.Multiset[ident.ID]]{
		hist(maj1, maj2),
		hist(maj2),
		hist(maj1.Union(maj2), maj2),
		nil,
	})
	if _, err := CheckSigma(g, good); err != nil {
		t.Fatalf("good Σ history rejected: %v", err)
	}

	// Safety violation: {p0} and {p2} are disjoint quorums.
	badSafety := NewStaticProbe([][]Sample[*multiset.Multiset[ident.ID]]{
		hist(ms(ids[0])),
		hist(ms(ids[2])),
		hist(maj2),
		nil,
	})
	if _, err := CheckSigma(g, badSafety); err == nil || !strings.Contains(err.Error(), "safety") {
		t.Errorf("disjoint quorums accepted: %v", err)
	}

	// Liveness violation: trusting the crashed p3 forever.
	badLive := NewStaticProbe([][]Sample[*multiset.Multiset[ident.ID]]{
		hist(ms(ids[0], ids[3])),
		hist(maj2),
		hist(maj2),
		nil,
	})
	if _, err := CheckSigma(g, badLive); err == nil || !strings.Contains(err.Error(), "liveness") {
		t.Errorf("faulty-trusting quorum accepted: %v", err)
	}
}

func TestCheckAliveList(t *testing.T) {
	g := NewGroundTruth(ident.Unique(3), map[sim.PID]sim.Time{2: 5})
	ids := g.IDs
	good := NewStaticProbe([][]Sample[[]ident.ID]{
		hist([]ident.ID{ids[2], ids[0], ids[1]}, []ident.ID{ids[0], ids[1], ids[2]}),
		hist([]ident.ID{ids[1], ids[0], ids[2]}),
		nil,
	})
	if _, err := CheckAliveList(g, good); err != nil {
		t.Fatalf("good 𝔈 history rejected: %v", err)
	}
	bad := NewStaticProbe([][]Sample[[]ident.ID]{
		hist([]ident.ID{ids[0], ids[2], ids[1]}), // crashed id ranked 2nd forever
		hist([]ident.ID{ids[0], ids[1]}),
		nil,
	})
	if _, err := CheckAliveList(g, bad); err == nil {
		t.Error("bad prefix accepted")
	}
}

func TestCheckAP(t *testing.T) {
	g := NewGroundTruth(ident.AnonymousN(4), map[sim.PID]sim.Time{3: 100})
	good := NewStaticProbe([][]Sample[int]{
		{{Time: 1, Value: 4}, {Time: 150, Value: 3}},
		{{Time: 1, Value: 4}, {Time: 160, Value: 3}},
		{{Time: 1, Value: 4}, {Time: 170, Value: 3}},
		nil,
	})
	res, err := CheckAP(g, good)
	if err != nil {
		t.Fatalf("good AP history rejected: %v", err)
	}
	if res.StabilizationTime != 170 {
		t.Errorf("StabilizationTime = %d, want 170", res.StabilizationTime)
	}

	// Safety violation: outputs 2 while 4 processes are alive.
	badSafety := NewStaticProbe([][]Sample[int]{
		{{Time: 1, Value: 2}, {Time: 150, Value: 3}},
		{{Time: 1, Value: 4}, {Time: 150, Value: 3}},
		{{Time: 1, Value: 4}, {Time: 150, Value: 3}},
		nil,
	})
	if _, err := CheckAP(g, badSafety); err == nil || !strings.Contains(err.Error(), "safety") {
		t.Errorf("under-count accepted: %v", err)
	}

	// Liveness violation: stuck at 4 forever.
	badLive := NewStaticProbe([][]Sample[int]{
		{{Time: 1, Value: 4}},
		{{Time: 1, Value: 4}, {Time: 150, Value: 3}},
		{{Time: 1, Value: 4}, {Time: 150, Value: 3}},
		nil,
	})
	if _, err := CheckAP(g, badLive); err == nil || !strings.Contains(err.Error(), "liveness") {
		t.Errorf("non-tight bound accepted: %v", err)
	}
}

func TestCheckAOmega(t *testing.T) {
	g := NewGroundTruth(ident.AnonymousN(3), map[sim.PID]sim.Time{1: 5})
	good := NewStaticProbe([][]Sample[bool]{
		hist(false, true),
		nil,
		hist(true, false),
	})
	if _, err := CheckAOmega(g, good); err != nil {
		t.Fatalf("good AΩ history rejected: %v", err)
	}
	bad := NewStaticProbe([][]Sample[bool]{
		hist(true),
		nil,
		hist(true),
	})
	if _, err := CheckAOmega(g, bad); err == nil {
		t.Error("two leaders accepted")
	}
}

func TestRankHelpers(t *testing.T) {
	alive := []ident.ID{"c", "a", "b"}
	if Rank("a", alive) != 2 {
		t.Errorf("Rank(a) = %d", Rank("a", alive))
	}
	if Rank("zz", alive) != 0 {
		t.Errorf("Rank(zz) = %d", Rank("zz", alive))
	}
	if MaxRank([]ident.ID{"a", "c"}, alive) != 2 {
		t.Errorf("MaxRank = %d", MaxRank([]ident.ID{"a", "c"}, alive))
	}
	if got := MaxRank([]ident.ID{"a", "zz"}, alive); got <= 3 {
		t.Errorf("MaxRank with missing = %d, want > len(alive)", got)
	}
}

func TestLabelsEqual(t *testing.T) {
	if !LabelsEqual([]Label{"b", "a"}, []Label{"a", "b"}) {
		t.Error("order should not matter")
	}
	if LabelsEqual([]Label{"a"}, []Label{"a", "b"}) {
		t.Error("different sizes equal")
	}
	if !LabelsEqual(nil, nil) {
		t.Error("nil sets should be equal")
	}
}

func TestIsCorrect(t *testing.T) {
	g := truth3AAB(1)
	if !g.IsCorrect(0) || g.IsCorrect(1) || !g.IsCorrect(2) {
		t.Error("IsCorrect wrong")
	}
}

func TestProbeLastOnEmpty(t *testing.T) {
	pr := NewStaticProbe([][]Sample[int]{nil})
	if _, ok := pr.Last(0); ok {
		t.Error("Last on empty history should report false")
	}
	if pr.LastChange(0) != 0 {
		t.Error("LastChange on empty history should be 0")
	}
	if pr.N() != 1 {
		t.Error("N wrong")
	}
}
