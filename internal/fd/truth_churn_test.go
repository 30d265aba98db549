package fd

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

func churnTruth(t *testing.T) *GroundTruth {
	t.Helper()
	// p0 correct; p1 crash-stop at 10; p2 churns (down [20,30)); p3 churns
	// twice and stays down ([5,15), [40,∞)).
	ids := ident.Assignment{"A", "A", "B", "C"}
	return NewGroundTruthFromChurn(ids, []sim.ChurnEvent{
		{P: 1, At: 10},
		{P: 2, At: 20}, {P: 2, At: 30, Recover: true},
		{P: 3, At: 5}, {P: 3, At: 15, Recover: true}, {P: 3, At: 40},
	})
}

func TestChurnTruthSets(t *testing.T) {
	g := churnTruth(t)
	if got := g.Correct(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Correct = %v, want [0]", got)
	}
	if got := g.EventuallyUp(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("EventuallyUp = %v, want [0 2]", got)
	}
	if !g.IsEventuallyUp(2) || g.IsEventuallyUp(1) || g.IsEventuallyUp(3) || !g.IsEventuallyUp(0) {
		t.Fatal("IsEventuallyUp misclassifies")
	}
	if g.IsCorrect(2) {
		t.Fatal("a recovered churner is not correct in the strict sense")
	}
	want := multiset.New[ident.ID]()
	want.Add(ident.ID("A"))
	want.Add(ident.ID("B"))
	if !g.EventuallyUpIDs().Equal(want) {
		t.Fatalf("EventuallyUpIDs = %v, want {A, B}", g.EventuallyUpIDs())
	}
	if li, ok := g.ExpectedLeader(); !ok || li.ID != "A" || li.Multiplicity != 1 {
		t.Fatalf("ExpectedLeader = %v,%v, want (A, 1) over EventuallyUp", li, ok)
	}
}

func TestChurnTruthAliveAt(t *testing.T) {
	g := churnTruth(t)
	alive := func(tm sim.Time) map[sim.PID]bool {
		out := map[sim.PID]bool{}
		for _, p := range g.AliveAt(tm) {
			out[p] = true
		}
		return out
	}
	a := alive(0)
	if len(a) != 4 {
		t.Fatalf("AliveAt(0) = %v, want all", a)
	}
	a = alive(7) // p3 down [5,15)
	if a[3] || !a[0] || !a[1] || !a[2] {
		t.Fatalf("AliveAt(7) = %v", a)
	}
	a = alive(15) // recovery boundary: up at exactly To
	if !a[3] {
		t.Fatalf("AliveAt(15) = %v: recovery at 15 means up at 15", a)
	}
	a = alive(25) // p1 down (crash-stop), p2 down [20,30)
	if a[1] || a[2] || !a[3] {
		t.Fatalf("AliveAt(25) = %v", a)
	}
	a = alive(100)
	if a[1] || a[3] || !a[0] || !a[2] {
		t.Fatalf("AliveAt(100) = %v", a)
	}
	if got := g.AliveCountAt(25); got != 2 {
		t.Fatalf("AliveCountAt(25) = %d, want 2", got)
	}
}

func TestChurnTruthTimesAndCounts(t *testing.T) {
	g := churnTruth(t)
	if got := g.LastCrashTime(); got != 40 {
		t.Fatalf("LastCrashTime = %d, want 40", got)
	}
	if got := g.LastChange(); got != 40 {
		t.Fatalf("LastChange = %d, want 40", got)
	}
	recoveries := 0
	for _, p := range g.Faulty() {
		for _, iv := range g.Down(p) {
			if iv.To != Forever {
				recoveries++
			}
		}
	}
	if recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", recoveries)
	}
	// A pattern whose last change is a recovery.
	g2 := NewGroundTruthFromChurn(ident.Unique(2), []sim.ChurnEvent{
		{P: 1, At: 10}, {P: 1, At: 50, Recover: true},
	})
	if got := g2.LastChange(); got != 50 {
		t.Fatalf("LastChange = %d, want 50 (the recovery)", got)
	}
}

func TestChurnTruthDegeneratesToCrashStop(t *testing.T) {
	ids := ident.Assignment{"A", "B", "C"}
	fromChurn := NewGroundTruthFromChurn(ids, []sim.ChurnEvent{{P: 1, At: 10}})
	classic := NewGroundTruth(ids, map[sim.PID]sim.Time{1: 10})
	if !samePIDList(fromChurn.Correct(), classic.Correct()) ||
		!samePIDList(fromChurn.EventuallyUp(), classic.EventuallyUp()) {
		t.Fatal("churn truth without recoveries differs from crash-stop truth")
	}
	if !fromChurn.EventuallyUpIDs().Equal(classic.EventuallyUpIDs()) || !classic.EventuallyUpIDs().Equal(ms("A", "C")) {
		t.Fatal("EventuallyUpIDs != I(Correct) in crash-stop")
	}
	// Crash-stop: EventuallyUp == Correct by construction.
	if !samePIDList(classic.Correct(), classic.EventuallyUp()) {
		t.Fatal("crash-stop EventuallyUp diverged from Correct")
	}
}

func TestChurnTruthDegenerateEvents(t *testing.T) {
	ids := ident.Assignment{"A", "B"}
	g := NewGroundTruthFromChurn(ids, []sim.ChurnEvent{
		{P: 1, At: 5, Recover: true},                  // recover while up: ignored
		{P: 1, At: 10}, {P: 1, At: 10, Recover: true}, // zero-length outage
	})
	// The instantaneous outage is a real crash (the engine's everCrashed is
	// sticky, so its CorrectSet excludes the process — the truth must
	// agree), but it is unobservable by AliveAt and ends in a recovery.
	if g.IsCorrect(1) {
		t.Fatal("a process that crashed for an instant is not correct")
	}
	if !g.IsEventuallyUp(1) {
		t.Fatal("an instantaneous outage ends in recovery: eventually up")
	}
	if got := g.AliveCountAt(10); got != 2 {
		t.Fatalf("AliveCountAt(10) = %d, want 2 (zero-length outage unobservable)", got)
	}
}

// TestSameInstantCrashRecoverEngineTruthAgree pins the engine and the
// schedule-derived truth to the same classification of an instantaneous
// outage — the seam checkTruthConsistency compares.
func TestSameInstantCrashRecoverEngineTruthAgree(t *testing.T) {
	evs := []sim.ChurnEvent{{P: 1, At: 10}, {P: 1, At: 10, Recover: true}}
	g := NewGroundTruthFromChurn(ident.Unique(3), evs)

	eng := sim.New(sim.Config{IDs: ident.Unique(3), Net: sim.Timely{Delta: 2}, Seed: 1})
	for i := 0; i < 3; i++ {
		eng.AddProcess(quietProc{})
	}
	eng.ApplyChurn(evs)
	eng.Run(50)
	if !samePIDList(eng.CorrectSet(), g.Correct()) {
		t.Fatalf("CorrectSet %v != truth %v", eng.CorrectSet(), g.Correct())
	}
	if !samePIDList(eng.EventuallyUpSet(), g.EventuallyUp()) {
		t.Fatalf("EventuallyUpSet %v != truth %v", eng.EventuallyUpSet(), g.EventuallyUp())
	}
}

type quietProc struct{}

func (quietProc) Init(sim.Environment) {}
func (quietProc) OnMessage(any)        {}
func (quietProc) OnTimer(int)          {}

// TestCheckDiamondHPbarUnderChurn pins the churn-restated class property:
// the final trusted multiset must equal I(EventuallyUp) — I(Correct) is
// now the wrong target when churners recover.
func TestCheckDiamondHPbarUnderChurn(t *testing.T) {
	g := churnTruth(t) // EventuallyUp = {0, 2}: I = {A, B}
	right := multiset.New[ident.ID]()
	right.Add(ident.ID("A"))
	right.Add(ident.ID("B"))
	wrong := multiset.New[ident.ID]() // I(Correct) = {A} alone: stale target
	wrong.Add(ident.ID("A"))

	histories := make([][]Sample[*multiset.Multiset[ident.ID]], 4)
	histories[0] = []Sample[*multiset.Multiset[ident.ID]]{{Time: 60, Value: right}}
	histories[2] = []Sample[*multiset.Multiset[ident.ID]]{{Time: 60, Value: right}}
	if _, err := CheckDiamondHPbar(g, NewStaticProbe(histories)); err != nil {
		t.Fatalf("correct churn output rejected: %v", err)
	}

	stale := make([][]Sample[*multiset.Multiset[ident.ID]], 4)
	stale[0] = []Sample[*multiset.Multiset[ident.ID]]{{Time: 60, Value: wrong}}
	stale[2] = []Sample[*multiset.Multiset[ident.ID]]{{Time: 60, Value: wrong}}
	if _, err := CheckDiamondHPbar(g, NewStaticProbe(stale)); err == nil {
		t.Fatal("output excluding a recovered churner must fail the churn check")
	}
}

func samePIDList(a, b []sim.PID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGroundTruthDeriveAllocs pins derive to one allocation per process
// list at n = 10,000 with 5 % of the processes crashing and 5 % churning:
// grown by append, the two lists took 43 allocations and over four times
// the bytes they keep. What remains is the eventually-up identifier
// multiset, a handful for ten identifiers.
func TestGroundTruthDeriveAllocs(t *testing.T) {
	const n = 10_000
	var evs []sim.ChurnEvent
	for p := sim.PID(0); p < n; p += 20 {
		evs = append(evs, sim.ChurnEvent{P: p, At: 10}, sim.ChurnEvent{P: p + 1, At: 10}, sim.ChurnEvent{P: p + 1, At: 20, Recover: true})
	}
	g := NewGroundTruthFromChurn(ident.Balanced(n, 10), evs)
	if len(g.Correct()) != n-n/10 || len(g.EventuallyUp()) != n-n/20 {
		t.Fatalf("%d correct, %d eventually up, want %d and %d", len(g.Correct()), len(g.EventuallyUp()), n-n/10, n-n/20)
	}
	allocs := testing.AllocsPerRun(10, func() {
		g.correct, g.eventuallyUp = nil, nil // as the constructors leave them
		g.derive()
	})
	t.Logf("derive: %.0f allocations", allocs)
	if allocs > 8 {
		t.Errorf("derive made %.0f allocations at n = %d, want <= 8 (one per process list, the rest for the identifier multiset)", allocs, n)
	}
}
