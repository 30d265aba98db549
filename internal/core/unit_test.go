package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

func TestClassifyRec(t *testing.T) {
	tests := []struct {
		name string
		rec  []Value
		kind recKind
		val  Value
	}{
		{"unanimous value", []Value{"v"}, recAllSameValue, "v"},
		{"value and bottom", []Value{Bottom, "v"}, recValueAndBot, "v"},
		{"all bottom", []Value{Bottom}, recAllBot, Bottom},
		{"two values", []Value{"a", "b"}, recInvalid, Bottom},
		{"empty", nil, recInvalid, Bottom},
		{"three entries", []Value{Bottom, "a", "b"}, recInvalid, Bottom},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			kind, val := classifyRec(tt.rec)
			if kind != tt.kind || val != tt.val {
				t.Errorf("classifyRec(%v) = (%v, %q), want (%v, %q)", tt.rec, kind, val, tt.kind, tt.val)
			}
		})
	}
}

func TestDistinctSortsBottomFirst(t *testing.T) {
	got := distinct([]Value{"z", Bottom, "z", "a", Bottom})
	want := []Value{Bottom, "a", "z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distinct = %q, want %q", got, want)
	}
}

func TestMinValue(t *testing.T) {
	if got := minValue([]Value{"m", "a", "z"}); got != "a" {
		t.Errorf("minValue = %q", got)
	}
	if got := minValue([]Value{"only"}); got != "only" {
		t.Errorf("minValue = %q", got)
	}
}

// matchQuorum scenarios: the core of Fig. 9's Phase 1/2 guard.
func TestMatchQuorum(t *testing.T) {
	hs := &stubHSigma{
		quora: []fd.QuorumPair{
			{Label: "q", M: multiset.From[ident.ID]("A", "A", "B")},
		},
	}
	c := &Fig9{d2: hs}

	msg := func(id ident.ID, sr int, labels []fd.Label, est Value) quorMsg {
		return quorMsg{id: id, sr: sr, labels: labels, est: est}
	}

	t.Run("no messages", func(t *testing.T) {
		if _, ok := c.matchQuorum(nil); ok {
			t.Error("matched with no messages")
		}
	})

	t.Run("exact match same sub-round", func(t *testing.T) {
		msgs := []quorMsg{
			msg("A", 1, []fd.Label{"q"}, "x"),
			msg("A", 1, []fd.Label{"q"}, "x"),
			msg("B", 1, []fd.Label{"q"}, "x"),
		}
		rec, ok := c.matchQuorum(bufOf(msgs))
		if !ok || len(rec) != 3 {
			t.Fatalf("rec = %v, ok = %v", rec, ok)
		}
	})

	t.Run("missing multiplicity", func(t *testing.T) {
		msgs := []quorMsg{
			msg("A", 1, []fd.Label{"q"}, "x"),
			msg("B", 1, []fd.Label{"q"}, "x"),
		}
		if _, ok := c.matchQuorum(bufOf(msgs)); ok {
			t.Error("matched with only one A (needs two)")
		}
	})

	t.Run("label must be carried by every member", func(t *testing.T) {
		msgs := []quorMsg{
			msg("A", 1, []fd.Label{"q"}, "x"),
			msg("A", 1, []fd.Label{"other"}, "x"), // lacks q
			msg("B", 1, []fd.Label{"q"}, "x"),
		}
		if _, ok := c.matchQuorum(bufOf(msgs)); ok {
			t.Error("matched although one A does not carry the label")
		}
	})

	t.Run("sub-rounds do not mix", func(t *testing.T) {
		msgs := []quorMsg{
			msg("A", 1, []fd.Label{"q"}, "x"),
			msg("A", 2, []fd.Label{"q"}, "x"),
			msg("B", 1, []fd.Label{"q"}, "x"),
		}
		if _, ok := c.matchQuorum(bufOf(msgs)); ok {
			t.Error("matched across different sub-rounds")
		}
	})

	t.Run("later sub-round can match", func(t *testing.T) {
		msgs := []quorMsg{
			msg("A", 2, []fd.Label{"q"}, "x"),
			msg("A", 2, []fd.Label{"q"}, "y"),
			msg("B", 2, []fd.Label{"q"}, "x"),
		}
		rec, ok := c.matchQuorum(bufOf(msgs))
		if !ok {
			t.Fatal("no match in sub-round 2")
		}
		if allSame(rec) {
			t.Error("mixed estimates reported as unanimous")
		}
	})

	t.Run("deterministic earliest-arrival selection", func(t *testing.T) {
		msgs := []quorMsg{
			msg("A", 1, []fd.Label{"q"}, "first"),
			msg("A", 1, []fd.Label{"q"}, "second"),
			msg("A", 1, []fd.Label{"q"}, "third"), // extra A beyond demand
			msg("B", 1, []fd.Label{"q"}, "b"),
		}
		rec, _ := c.matchQuorum(bufOf(msgs))
		want := []Value{"first", "second", "b"}
		if !reflect.DeepEqual(rec, want) {
			t.Errorf("rec = %v, want %v", rec, want)
		}
	})
}

type stubHSigma struct {
	quora  []fd.QuorumPair
	labels []fd.Label
}

func (s *stubHSigma) Quora() []fd.QuorumPair { return s.quora }
func (s *stubHSigma) Labels() []fd.Label     { return s.labels }

func bufOf(msgs []quorMsg) *quorBuf {
	b := &quorBuf{}
	for _, m := range msgs {
		b.add(m)
	}
	return b
}

// matchQuorumRescan is the guard as it was evaluated before the sender
// index existed — rebuild every (pair, sub-round) multiset from the
// message list on each call — kept as the reference the index is held to.
func matchQuorumRescan(quora []fd.QuorumPair, msgs []quorMsg) ([]Value, bool) {
	if len(msgs) == 0 {
		return nil, false
	}
	labelSets := make([]map[fd.Label]bool, len(msgs))
	srs := make(map[int]bool)
	for i, m := range msgs {
		srs[m.sr] = true
		labelSets[i] = make(map[fd.Label]bool, len(m.labels))
		for _, l := range m.labels {
			labelSets[i][l] = true
		}
	}
	srList := make([]int, 0, len(srs))
	for sr := range srs {
		srList = append(srList, sr)
	}
	sort.Ints(srList)

	for _, pair := range quora {
		for _, sr := range srList {
			avail := multiset.New[ident.ID]()
			for i, m := range msgs {
				if m.sr == sr && labelSets[i][pair.Label] {
					avail.Add(m.id)
				}
			}
			if avail.Empty() || !pair.M.SubsetOf(avail) {
				continue
			}
			need := pair.M.Counts()
			rec := make([]Value, 0, pair.M.Len())
			for i, m := range msgs {
				if m.sr == sr && labelSets[i][pair.Label] && need[m.id] > 0 {
					need[m.id]--
					rec = append(rec, m.est)
				}
			}
			return rec, true
		}
	}
	return nil, false
}

// TestMatchQuorumIndexEqualsRescan holds the index to the rescan after
// every arrival of random sequences: homonymous senders, sub-rounds out of
// order, label lists that are empty, duplicated or long, quorum pairs with
// multiplicities above one and a label nobody carries.
func TestMatchQuorumIndexEqualsRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ids := []ident.ID{"A", "B", "C"}
	long := make([]fd.Label, 64)
	for i := range long {
		long[i] = fd.Label(fmt.Sprintf("l%02d", i))
	}
	labelLists := [][]fd.Label{
		nil, {"p"}, {"q"}, {"p", "q"}, {"q", "p", "q"}, {"p", "p"}, long,
		append(append([]fd.Label{}, long...), "q"),
	}
	pairLabels := []fd.Label{"p", "q", "l63", "nobody"}
	matches, arrivals := 0, 0
	for cas := 0; cas < 10000; cas++ {
		hs := &stubHSigma{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			m := multiset.New[ident.ID]()
			for sz := 1 + rng.Intn(3); sz > 0; sz-- {
				m.Add(ids[rng.Intn(len(ids))])
			}
			hs.quora = append(hs.quora, fd.QuorumPair{Label: pairLabels[rng.Intn(len(pairLabels))], M: m})
		}
		c := &Fig9{d2: hs}
		buf := &quorBuf{}
		for n := 1 + rng.Intn(10); n > 0; n-- {
			buf.add(quorMsg{
				id:     ids[rng.Intn(len(ids))],
				sr:     1 + rng.Intn(4),
				labels: labelLists[rng.Intn(len(labelLists))],
				est:    Value(fmt.Sprintf("e%d", arrivals)),
			})
			arrivals++
			got, gotOK := c.matchQuorum(buf)
			want, wantOK := matchQuorumRescan(hs.quora, buf.msgs)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d after %d arrivals: index (%v, %v), rescan (%v, %v)\nquora %v\nmsgs %v",
					cas, len(buf.msgs), got, gotOK, want, wantOK, hs.quora, buf.msgs)
			}
			if gotOK {
				matches++
			}
		}
	}
	// Both outcomes must be well represented or the property is vacuous.
	if matches < arrivals/10 || matches > arrivals*9/10 {
		t.Errorf("%d matches in %d guard evaluations: generator is lopsided", matches, arrivals)
	}
}

// TestMatchQuorumFailingGuardAllocatesNothing: the guard fails on almost
// every evaluation, so that path must not build maps or multisets.
func TestMatchQuorumFailingGuardAllocatesNothing(t *testing.T) {
	hs := &stubHSigma{quora: []fd.QuorumPair{
		{Label: "all", M: multiset.From[ident.ID]("A", "A", "A", "B", "B", "B", "C", "C", "C")},
		{Label: "corr", M: multiset.From[ident.ID]("A", "A", "B", "D")},
	}}
	c := &Fig9{d2: hs}
	buf := &quorBuf{}
	labels := []fd.Label{"all", "corr"}
	for i := 0; i < 16; i++ {
		buf.add(quorMsg{id: []ident.ID{"A", "B", "C"}[i%3], sr: 1 + i/8, labels: labels, est: "v"})
	}
	if _, ok := c.matchQuorum(buf); ok {
		t.Fatal("guard holds: the test needs a failing one")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.matchQuorum(buf) }); allocs != 0 {
		t.Errorf("failing guard allocates %v times per evaluation, want 0", allocs)
	}
}

type stubHOmega struct{ leader fd.LeaderInfo }

func (s stubHOmega) Leader() (fd.LeaderInfo, bool) { return s.leader, true }

type stubAOmega bool

func (s stubAOmega) IsLeader() bool { return bool(s) }

// spoiler keeps a consensus instance with identifier A — Fig. 8's message
// types or Fig. 9's — cycling through rounds without ever deciding: it
// answers each of A's PH1 with an estimate of its own, completes the
// resulting Phase 2 quorum with a ⊥, so the round closes on "skip" or
// "adopt", and re-sends one message of every buffered kind for the round A
// has already left. A rejoining A it pulls three rounds ahead, over two
// rounds it has sent traffic for.
type spoiler struct {
	env sim.Environment
	// own counts the Fig. 8 messages in flight back to the spoiler itself:
	// they name no sender, so a copy of its own broadcast is told from A's
	// message by having one owed.
	own map[any]int
}

var spoilerLabels = []fd.Label{"q"}

func (s *spoiler) Init(env sim.Environment) { s.env, s.own = env, make(map[any]int) }
func (s *spoiler) OnTimer(int)              {}

func (s *spoiler) send(payload any) {
	switch payload.(type) {
	case Ph1Msg, Ph2Msg:
		s.own[payload]++
	}
	s.env.Broadcast(payload)
}

func (s *spoiler) OnMessage(payload any) {
	labels := spoilerLabels
	switch m := payload.(type) {
	case Ph1Msg, Ph2Msg:
		if s.own[m] > 0 {
			s.own[m]--
			return
		}
	}
	switch m := payload.(type) {
	case Ph1Msg:
		s.send(Ph1Msg{Round: m.Round, Est: "spoil"})
		s.late(m.Round - 1)
	case Ph2Msg:
		s.send(Ph2Msg{Round: m.Round, Est: Bottom})
	case Ph1QMsg:
		if m.ID != "A" {
			return
		}
		s.send(Ph1QMsg{ID: "B", Round: m.Round, SR: m.SR, Labels: labels, Est: "spoil"})
		s.late(m.Round - 1)
	case Ph2QMsg:
		if m.ID == "A" {
			s.send(Ph2QMsg{ID: "B", Round: m.Round, SR: m.SR, Labels: labels, Est: Bottom})
		}
	case RejoinMsg:
		for ahead := 1; ahead <= 3; ahead++ {
			s.send(Ph1Msg{Round: m.Round + ahead, Est: "spoil"})
			s.send(Ph1QMsg{ID: "B", Round: m.Round + ahead, SR: 1, Labels: labels, Est: "spoil"})
		}
	}
}

// late sends one message of every buffered kind, of both figures, for a
// round A has left.
func (s *spoiler) late(round int) {
	labels := spoilerLabels
	s.send(CoordMsg{ID: "A", Round: round, Est: "late"})
	s.send(Ph0Msg{Round: round, Est: "late"})
	s.send(Ph1Msg{Round: round, Est: "late"})
	s.send(Ph2Msg{Round: round, Est: "late"})
	s.send(Ph1QMsg{ID: "B", Round: round, SR: 1, Labels: labels, Est: "late"})
	s.send(Ph2QMsg{ID: "B", Round: round, SR: 1, Labels: labels, Est: "late"})
}

// TestForgetsRoundsItLeft: under every constructor, the reception buffers
// are read at the current round and the next one only, so a long
// non-deciding run must not accumulate one entry per round passed —
// whether the round was left by Phase 2 or by a rejoiner's resync jump —
// nor buffer late arrivals for rounds it already left.
func TestForgetsRoundsItLeft(t *testing.T) {
	const rounds = 250
	leader := stubHOmega{fd.LeaderInfo{ID: "A", Multiplicity: 1}}
	hs := &stubHSigma{
		quora:  []fd.QuorumPair{{Label: "q", M: multiset.From[ident.ID]("A", "B")}},
		labels: []fd.Label{"q"},
	}
	type instance interface {
		sim.Process
		SetMaxRounds(int)
		Round() int
		Decided() Outcome
		InvariantErr() error
	}
	of8 := func(c *Fig8) (instance, buffered) { return c, bufferedBy(&c.skeleton, c.ph1, c.ph2) }
	of9 := func(c *Fig9) (instance, buffered) { return c, bufferedBy(&c.skeleton, c.ph1, c.ph2) }
	for _, v := range []struct {
		name string
		make func() (instance, buffered)
	}{
		{"NewFig8", func() (instance, buffered) { return of8(NewFig8(leader, 0, "v")) }},
		{"NewFig8NoCoordination", func() (instance, buffered) { return of8(NewFig8NoCoordination(leader, 0, "v")) }},
		{"NewFig8Alpha", func() (instance, buffered) { return of8(NewFig8Alpha(leader, 2, "v")) }},
		{"NewFig9", func() (instance, buffered) { return of9(NewFig9(leader, hs, "v")) }},
		{"NewFig9Anonymous", func() (instance, buffered) { return of9(NewFig9Anonymous(stubAOmega(true), hs, "v")) }},
	} {
		for _, tc := range []struct {
			name  string
			churn []sim.ChurnEvent
		}{
			{"crash-free", nil},
			{"resync jump", []sim.ChurnEvent{{P: 0, At: 40}, {P: 0, At: 60, Recover: true}}},
		} {
			for seed := int64(1); seed <= 8; seed++ {
				tag := fmt.Sprintf("%s %s seed %d", v.name, tc.name, seed)
				c, held := v.make()
				c.SetMaxRounds(rounds)
				eng := sim.New(sim.Config{IDs: ident.Assignment{"A", "B"}, Net: sim.Async{MaxDelay: 3}, Seed: seed, KnownN: true})
				eng.AddProcess(c)
				eng.AddProcess(&spoiler{})
				eng.ApplyChurn(tc.churn)
				eng.RunUntil(1_000_000, func() bool { return c.Round() > rounds })
				eng.Run(eng.Now() + 50) // let the last late arrivals land

				if c.Decided().Decided || c.Round() != rounds+1 {
					t.Fatalf("%s: decided=%v round=%d: want an undecided run stopped at round %d",
						tag, c.Decided().Decided, c.Round(), rounds+1)
				}
				if err := c.InvariantErr(); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < c.Round(); r++ {
					if inRound, _ := held(r); inRound {
						t.Fatalf("%s: round %d is still buffered at round %d", tag, r, c.Round())
					}
				}
				if _, n := held(0); n > 2*3 {
					t.Errorf("%s: %d buffer entries after %d rounds, want at most two rounds' worth", tag, n, rounds)
				}
			}
		}
	}
}

// buffered reports what an instance still holds in its reception buffers:
// whether anything of round r, and how many (buffer, round) entries in all.
type buffered func(r int) (inRound bool, entries int)

func bufferedBy[V any](sk *skeleton, ph1, ph2 map[int]V) buffered {
	return func(r int) (bool, int) {
		_, a := sk.rounds[r]
		_, b := ph1[r]
		_, c := ph2[r]
		return a || b || c, len(sk.rounds) + len(ph1) + len(ph2)
	}
}
