package ohp

import (
	"testing"

	"math/rand"
	"repro/internal/fd"
	"repro/internal/ident"

	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

type run struct {
	eng   *sim.Engine
	dets  []*Detector
	truth *fd.GroundTruth
	tr    *fd.Probe[*multiset.Multiset[ident.ID]]
	ld    *fd.Probe[fd.LeaderInfo]
}

func setup(ids ident.Assignment, net sim.Model, crashes map[sim.PID]sim.Time, seed int64) *run {
	eng := sim.New(sim.Config{IDs: ids, Net: net, Seed: seed})
	dets := make([]*Detector, ids.N())
	for i := range dets {
		dets[i] = New()
		eng.AddProcess(dets[i])
	}
	eng.CrashSchedule(crashes)
	tr := fd.NewProbe(eng, ids.N(), func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Trusted(), true
	}, func(a, b *multiset.Multiset[ident.ID]) bool { return a.Equal(b) })
	ld := fd.NewProbe(eng, ids.N(), func(p sim.PID) (fd.LeaderInfo, bool) {
		if eng.Crashed(p) {
			return fd.LeaderInfo{}, false
		}
		return dets[p].Leader()
	}, func(a, b fd.LeaderInfo) bool { return a == b })
	return &run{eng: eng, dets: dets, truth: fd.NewGroundTruth(ids, crashes), tr: tr, ld: ld}
}

func (r *run) check(t *testing.T, horizon sim.Time) (fd.Result, fd.Result) {
	t.Helper()
	r.eng.Run(horizon)
	resT, err := fd.CheckDiamondHPbar(r.truth, r.tr)
	if err != nil {
		t.Fatalf("◇HP̄: %v", err)
	}
	resL, err := fd.CheckHOmega(r.truth, r.ld)
	if err != nil {
		t.Fatalf("HΩ: %v", err)
	}
	return resT, resL
}

func TestFailureFreePartialSync(t *testing.T) {
	r := setup(ident.Balanced(4, 2), sim.PartialSync{GST: 50, Delta: 3, PreLoss: 0.5}, nil, 1)
	r.check(t, 3000)
}

func TestCrashesBeforeGST(t *testing.T) {
	crashes := map[sim.PID]sim.Time{1: 20, 4: 40}
	r := setup(ident.Balanced(5, 2), sim.PartialSync{GST: 60, Delta: 4, PreLoss: 0.5}, crashes, 2)
	r.check(t, 4000)
}

func TestCrashesAfterGST(t *testing.T) {
	crashes := map[sim.PID]sim.Time{0: 200}
	r := setup(ident.Balanced(5, 3), sim.PartialSync{GST: 50, Delta: 3, PreLoss: 0.5}, crashes, 3)
	r.check(t, 4000)
}

func TestLeaderGroupCrash(t *testing.T) {
	// All holders of the smallest identifier crash; HΩ must elect the next
	// identifier with the right multiplicity.
	ids := ident.Assignment{"a", "a", "b", "b", "b"}
	crashes := map[sim.PID]sim.Time{0: 100, 1: 150}
	r := setup(ids, sim.PartialSync{GST: 40, Delta: 3, PreLoss: 0.5}, crashes, 4)
	_, resL := r.check(t, 4000)
	li, _ := r.ld.Last(2)
	if li.ID != "b" || li.Multiplicity != 3 {
		t.Errorf("leader = %v, want (b, 3)", li)
	}
	if resL.StabilizationTime < 150 {
		t.Errorf("leader stabilized at %d, before the last crash", resL.StabilizationTime)
	}
}

func TestAnonymousExtreme(t *testing.T) {
	// ℓ=1: ◇HP̄ reduces to counting alive processes (cf. AP).
	crashes := map[sim.PID]sim.Time{3: 30}
	r := setup(ident.AnonymousN(4), sim.PartialSync{GST: 50, Delta: 3, PreLoss: 0.5}, crashes, 5)
	r.check(t, 3000)
	got, _ := r.tr.Last(0)
	if got.Len() != 3 || got.Count(ident.Anonymous) != 3 {
		t.Errorf("trusted = %v, want {⊥,⊥,⊥}", got)
	}
}

func TestUniqueExtreme(t *testing.T) {
	crashes := map[sim.PID]sim.Time{2: 30}
	r := setup(ident.Unique(5), sim.PartialSync{GST: 50, Delta: 3, PreLoss: 0.5}, crashes, 6)
	r.check(t, 3000)
}

func TestManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(0); seed < 6; seed++ {
		crashes := map[sim.PID]sim.Time{sim.PID(seed % 5): 25 + sim.Time(seed)*7}
		r := setup(ident.Balanced(5, 2), sim.PartialSync{GST: 30 + sim.Time(seed)*11, Delta: 2 + sim.Time(seed%3), PreLoss: 0.5}, crashes, seed)
		r.check(t, 6000)
	}
}

func TestTimeoutAdapts(t *testing.T) {
	// With δ far above the initial timeout, the adaptive rule must grow
	// timeouts well beyond their initial value of 1.
	r := setup(ident.Unique(3), sim.PartialSync{GST: 10, Delta: 12, PreLoss: 0.5}, nil, 7)
	r.check(t, 8000)
	for i, d := range r.dets {
		if d.Timeout() <= 2 {
			t.Errorf("process %d timeout = %d, expected adaptation above 2", i, d.Timeout())
		}
	}
}

func TestMembershipDiscovered(t *testing.T) {
	r := setup(ident.Balanced(6, 3), sim.PartialSync{GST: 40, Delta: 3, PreLoss: 0.5}, nil, 8)
	r.check(t, 3000)
	for i, d := range r.dets {
		if len(d.latestR) != 3 {
			t.Errorf("process %d discovered %d identifiers, want 3", i, len(d.latestR))
		}
	}
}

func TestStabilizationAfterGSTAndCrashes(t *testing.T) {
	crashes := map[sim.PID]sim.Time{1: 80}
	r := setup(ident.Balanced(4, 2), sim.PartialSync{GST: 100, Delta: 4, PreLoss: 0.5}, crashes, 9)
	resT, _ := r.check(t, 5000)
	if resT.StabilizationTime < 80 {
		t.Errorf("◇HP̄ stabilized at %d, before the crash at 80", resT.StabilizationTime)
	}
}

func TestLeaderBeforeFirstRoundNotOK(t *testing.T) {
	d := New()
	if _, ok := d.Leader(); ok {
		t.Error("Leader should not report ok before the first round closes")
	}
}

func TestOneReplyPerIdentifierPerRoundRange(t *testing.T) {
	// Two homonymous pollers: a responder must answer their shared
	// identifier once per round range, not once per process.
	rec := trace.NewRecorder()
	rec.KeepEvents = false
	ids := ident.Assignment{"x", "x", "y"}
	eng := sim.New(sim.Config{IDs: ids, Net: sim.Timely{Delta: 1}, Seed: 10, Recorder: rec})
	dets := make([]*Detector, 3)
	for i := range dets {
		dets[i] = New()
		eng.AddProcess(dets[i])
	}
	eng.Run(200)
	polls := rec.Stats().ByTag["POLLING"]
	replies := rec.Stats().ByTag["P_REPLY"]
	if replies > polls*3 {
		t.Errorf("replies %d exceed pollers×responders bound (%d POLLINGs)", replies, polls)
	}
	if replies == 0 || polls == 0 {
		t.Fatalf("no traffic: polls=%d replies=%d", polls, replies)
	}
}

// TestReplyRangesTile: the P_REPLY intervals one responder emits for one
// polled identity must tile 1..latest contiguously — no gaps (a round
// would never be answerable) and no overlaps (a round would be counted
// twice). This is the invariant behind Lemma 5's "for each round y > x
// there is some covering reply".
func TestReplyRangesTile(t *testing.T) {
	d := New()
	env := &scriptEnv{id: "me"}
	d.Init(env)
	env.sent = nil // discard the initial POLLING

	rounds := []int{1, 3, 2, 7, 7, 4, 12}
	for _, r := range rounds {
		d.onPolling(Polling{Round: r, ID: "them"})
	}
	var replies []Reply
	for _, m := range env.sent {
		if rep, ok := m.(Reply); ok && rep.Dest == "them" {
			replies = append(replies, rep)
		}
	}
	next := 1
	for i, rep := range replies {
		if rep.From != next {
			t.Fatalf("reply %d covers [%d,%d], expected to start at %d (gap or overlap)", i, rep.From, rep.To, next)
		}
		if rep.To < rep.From {
			t.Fatalf("reply %d has inverted range [%d,%d]", i, rep.From, rep.To)
		}
		next = rep.To + 1
	}
	if next != 13 {
		t.Fatalf("ranges cover 1..%d, want 1..12", next-1)
	}
}

// scriptEnv is a minimal Environment for white-box driving of a detector.
type scriptEnv struct {
	id   ident.ID
	now  sim.Time
	sent []any
	rng  *rand.Rand
}

func (e *scriptEnv) ID() ident.ID   { return e.id }
func (e *scriptEnv) N() (int, bool) { return 0, false }
func (e *scriptEnv) Now() sim.Time  { return e.now }
func (e *scriptEnv) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(1))
	}
	return e.rng
}
func (e *scriptEnv) Broadcast(payload any)                 { e.sent = append(e.sent, payload) }
func (e *scriptEnv) SetTimer(d sim.Time, tag int)          {}
func (e *scriptEnv) Snooze(sim.Time, int, sim.Time)        {}
func (e *scriptEnv) Note(k trace.Kind, tag, detail string) {}
func (e *scriptEnv) PID() sim.PID                          { return 0 }
func (e *scriptEnv) Changed()                              {}

func TestFixedTimeoutVariant(t *testing.T) {
	d := NewFixedTimeout(7)
	if d.Timeout() != 7 {
		t.Errorf("Timeout = %d, want 7", d.Timeout())
	}
	if d2 := NewFixedTimeout(0); d2.Timeout() != 1 {
		t.Errorf("Timeout = %d, want clamped 1", d2.Timeout())
	}
	// The ablated detector must not adapt: feed an outdated reply.
	env := &scriptEnv{id: "me"}
	d.Init(env)
	d.OnTimer(0) // round 1 -> 2; a From=1 reply is now outdated
	d.onReply(Reply{From: 1, To: 1, Dest: "me", Sender: "x"})
	if d.Timeout() != 7 {
		t.Errorf("fixed timeout adapted to %d", d.Timeout())
	}
	// The paper's detector does adapt in the same situation.
	a := New()
	a.Init(&scriptEnv{id: "me"})
	a.OnTimer(0)
	a.onReply(Reply{From: 1, To: 1, Dest: "me", Sender: "x"})
	if a.Timeout() != 2 {
		t.Errorf("adaptive timeout = %d, want 2", a.Timeout())
	}
}

// TestUnchangedRoundAllocs: a round that gathers the same h_trusted as the
// last one keeps the old multiset (pointer-stable, as Leader's memo and
// the probes require) and allocates only the box of its POLLING.
func TestUnchangedRoundAllocs(t *testing.T) {
	d := New()
	env := &scriptEnv{id: "a"}
	d.Init(env)
	round := func() {
		env.sent = env.sent[:0]
		for _, s := range []ident.ID{"a", "b", "b"} {
			d.onReply(Reply{From: d.round, To: d.round, Dest: "a", Sender: s})
		}
		d.OnTimer(d.epoch)
	}
	round()
	first := d.Trusted()
	if want := multiset.From[ident.ID]("a", "b", "b"); !first.Equal(want) {
		t.Fatalf("h_trusted = %v, want %v", first, want)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 1 {
		t.Errorf("an unchanged round allocated %.0f times, want 1 (its POLLING box)", allocs)
	}
	if d.Trusted() != first {
		t.Error("an unchanged round replaced h_trusted")
	}
	if _, ok := env.sent[0].(Polling); !ok || len(env.sent) != 1 {
		t.Errorf("a round sent %v, want one POLLING", env.sent)
	}

	// A changed round hands the gathered multiset out and leaves the
	// previous one as it was.
	d.onReply(Reply{From: d.round, To: d.round, Dest: "a", Sender: "c"})
	d.OnTimer(d.epoch)
	if d.Trusted() == first || !d.Trusted().Equal(multiset.From[ident.ID]("c")) {
		t.Errorf("h_trusted = %v after a changed round, want a new {c}", d.Trusted())
	}
	if !first.Equal(multiset.From[ident.ID]("a", "b", "b")) {
		t.Errorf("the replaced h_trusted changed to %v", first)
	}
}
