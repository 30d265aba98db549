package core

import (
	"cmp"
	"slices"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// Ph1QMsg is Fig. 9's Phase 1 message (PH1, id, r, sr, current_labels,
// est1): the sender's identifier, round, sub-round, its current HΣ label
// knowledge, and its estimate.
type Ph1QMsg struct {
	ID     ident.ID
	Round  int
	SR     int
	Labels []fd.Label
	Est    Value
}

// MsgTag implements sim.Tagger.
func (Ph1QMsg) MsgTag() string { return "PH1" }

// Ph2QMsg is Fig. 9's Phase 2 message (PH2, id, r, sr, current_labels,
// est2); Est may be Bottom.
type Ph2QMsg struct {
	ID     ident.ID
	Round  int
	SR     int
	Labels []fd.Label
	Est    Value
}

// MsgTag implements sim.Tagger.
func (Ph2QMsg) MsgTag() string { return "PH2" }

// quorMsg is one buffered PH1/PH2. labels is the sender's own slice, not a
// copy: a sender replaces its current_labels wholesale when they change and
// every fd.HSigma.Labels hands out a fresh or never-mutated slice, so
// nothing writes to it after the broadcast.
type quorMsg struct {
	id     ident.ID
	sr     int
	labels []fd.Label
	est    Value
}

// quorBuf is one round's PH1 or PH2 reception buffer: the messages in
// arrival order plus an index over them, maintained by add, that turns the
// quorum guard into a lookup. Invariant: avail(sr, x) is the multiset of
// senders of this round's buffered messages of sub-round sr whose label
// list contains x; a message is never removed, so it only grows.
type quorBuf struct {
	msgs []quorMsg
	srs  []srSenders // ascending by sr
}

// srSenders is the index of one sub-round: per label, who sent it. The
// label list is searched linearly — the HΣ detectors that feed Fig. 9
// carry a handful of labels — and stays correct, if slower, for long ones.
type srSenders struct {
	sr      int
	byLabel []labelSenders
}

type labelSenders struct {
	label   fd.Label
	senders *multiset.Multiset[ident.ID]
	counted int // len(msgs) after the last message counted: a label listed twice counts once
}

// add buffers an arriving message and counts its sender under each of its
// labels. This is the only place the index allocates.
func (b *quorBuf) add(m quorMsg) {
	b.msgs = append(b.msgs, m)
	i, found := slices.BinarySearchFunc(b.srs, m.sr, func(s srSenders, sr int) int { return cmp.Compare(s.sr, sr) })
	if !found {
		b.srs = slices.Insert(b.srs, i, srSenders{sr: m.sr})
	}
	s := &b.srs[i]
	for _, l := range m.labels {
		e := s.find(l)
		if e == nil {
			s.byLabel = append(s.byLabel, labelSenders{label: l, senders: multiset.New[ident.ID]()})
			e = &s.byLabel[len(s.byLabel)-1]
		}
		if e.counted != len(b.msgs) {
			e.counted = len(b.msgs)
			e.senders.Add(m.id)
		}
	}
}

// find returns the sub-round's entry for label x — its senders are
// avail(sr, x) — or nil when no message of the sub-round carries x.
func (s *srSenders) find(x fd.Label) *labelSenders {
	for i := range s.byLabel {
		if s.byLabel[i].label == x {
			return &s.byLabel[i]
		}
	}
	return nil
}

// maxSR returns the highest sub-round any buffered message carries, 0 for
// an empty (nil) buffer.
func (b *quorBuf) maxSR() int {
	if b == nil {
		return 0
	}
	return b.srs[len(b.srs)-1].sr
}

type fig9Phase int

const (
	f9Coord fig9Phase = iota + 1
	f9Ph0
	f9Ph1
	f9Ph2
)

// Fig9 is the per-process consensus instance for HAS[HΩ, HΣ] (Figure 9,
// Theorem 8): it tolerates any number of crashes and needs neither n nor t
// nor the membership. Quorums come from the HΣ detector: Phases 1 and 2
// run in sub-rounds, re-broadcasting whenever the local h_labels knowledge
// grows or a peer is seen in a later sub-round, until some h_quora pair
// (x, mset) is matched by messages of one sub-round all carrying label x
// whose sender identifiers form exactly mset.
//
// Constructed with NewFig9Anonymous instead, it becomes the anonymous
// baseline the paper derives it from (§5.3 closing remark): leadership
// comes from an AΩ detector and the Leaders' Coordination Phase is
// removed — the resulting Phase 0 matches Figure 3 of [6].
type Fig9 struct {
	decider
	d1       fd.HOmega // HΩ leadership (homonymous variant)
	d3       fd.AOmega // AΩ leadership (anonymous baseline variant)
	d2       fd.HSigma
	proposal Value

	round int
	phase fig9Phase
	est1  Value
	est2  Value

	sr            int
	currentLabels []fd.Label

	// Reception buffers, keyed by round. The guards read them at round and
	// round+1 only and round never decreases, so they hold no round below
	// it: arrivals for past rounds are not buffered and forgetRounds drops
	// a round's entries when the process leaves it.
	coord     map[int][]Value // estimates from homonym co-leaders, per round
	coordSeen map[int]bool    // any COORD seen for a round (Phase 2 exit)
	ph0       map[int]*Value
	ph1       map[int]*quorBuf // nil until the round's first PH1 arrives
	ph2       map[int]*quorBuf
	maxRounds int // safety valve for adversarial tests; 0 = unlimited

	// epoch and rejoining implement the crash-recovery rejoin protocol,
	// exactly as in Fig8: epoch invalidates timers stranded across an
	// outage, rejoining enables the round-resync fast-forward until the
	// process closes a full Phase 2 quorum again.
	epoch     int
	rejoining bool
}

var (
	_ sim.Process   = (*Fig9)(nil)
	_ sim.Poller    = (*Fig9)(nil)
	_ sim.Recoverer = (*Fig9)(nil)
)

// NewFig9 creates the homonymous instance with detectors D1 ∈ HΩ, D2 ∈ HΣ.
func NewFig9(d1 fd.HOmega, d2 fd.HSigma, proposal Value) *Fig9 {
	return newFig9(d1, nil, d2, proposal)
}

// NewFig9Anonymous creates the anonymous baseline with D3 ∈ AΩ, D2 ∈ HΣ
// (an AΣ detector can be lifted to HΣ with reduce.ASigmaToHSigma, matching
// the paper's AAS[AΩ, AΣ] setting).
func NewFig9Anonymous(d3 fd.AOmega, d2 fd.HSigma, proposal Value) *Fig9 {
	return newFig9(nil, d3, d2, proposal)
}

func newFig9(d1 fd.HOmega, d3 fd.AOmega, d2 fd.HSigma, proposal Value) *Fig9 {
	return &Fig9{
		d1:        d1,
		d3:        d3,
		d2:        d2,
		proposal:  proposal,
		coord:     make(map[int][]Value),
		coordSeen: make(map[int]bool),
		ph0:       make(map[int]*Value),
		ph1:       make(map[int]*quorBuf),
		ph2:       make(map[int]*quorBuf),
	}
}

// Init implements sim.Process: propose(v).
func (c *Fig9) Init(env sim.Environment) {
	c.env = env
	if c.proposal == Bottom {
		panic("core: Bottom must not be proposed")
	}
	c.est1 = c.proposal
	c.round = 1
	c.startRound()
	env.SetTimer(heartbeat, c.epoch)
	c.step()
}

func (c *Fig9) startRound() {
	if c.anonymous() {
		// The baseline drops the Leaders' Coordination Phase entirely.
		c.phase = f9Ph0
		return
	}
	c.phase = f9Coord
	c.env.Broadcast(CoordMsg{ID: c.env.ID(), Round: c.round, Est: c.est1})
}

func (c *Fig9) anonymous() bool { return c.d3 != nil }

// OnTimer implements sim.Process. Timers of an older epoch are stale
// pre-outage survivors and are ignored (see OnRecover).
func (c *Fig9) OnTimer(tag int) {
	if tag != c.epoch {
		return
	}
	if !c.outcome.Decided {
		c.env.SetTimer(heartbeat, c.epoch)
	}
	c.step()
}

// OnRecover implements sim.Recoverer — the same rejoin protocol as Fig8:
// restart the timer chain under a fresh epoch, broadcast (REJOIN, r), and
// either fast-forward into the live round from the acks or adopt an
// already-taken decision through the re-armed Task T2 relay. The sub-round
// machinery then catches the rejoiner up within the round: its Phase 1
// entry starts at sub-round 1 and climbs on every peer message carrying a
// higher sub-round, broadcasting once per sub-round passed.
func (c *Fig9) OnRecover() {
	if c.env == nil {
		return // crashed before Init ran; the engine never started this instance
	}
	c.epoch++
	if c.outcome.Decided {
		c.env.Broadcast(DecideMsg{Val: c.outcome.Value, Round: c.outcome.Round})
		return
	}
	c.rejoining = true
	c.env.SetTimer(heartbeat, c.epoch)
	c.env.Broadcast(RejoinMsg{Round: c.round})
	c.step()
}

// Poll implements sim.Poller: detector output changes (h_labels growth in
// particular) drive the sub-round machinery.
func (c *Fig9) Poll() { c.step() }

// OnMessage implements sim.Process. As in Fig8, round-stamped messages
// double as resync signals for a rejoining process, after being recorded
// in the reception buffers (unless they are of a round already left).
func (c *Fig9) OnMessage(payload any) {
	switch m := payload.(type) {
	case DecideMsg:
		c.onDecide(m)
	case RejoinMsg:
		c.onRejoin()
	case RejoinAckMsg:
		c.onRejoinAck(m)
	case CoordMsg:
		if m.Round >= c.round {
			c.coordSeen[m.Round] = true
			if m.ID == c.env.ID() {
				c.coord[m.Round] = append(c.coord[m.Round], m.Est)
			}
		}
		c.maybeResync(m.Round, m.Est, true)
	case Ph0Msg:
		if m.Round >= c.round && c.ph0[m.Round] == nil {
			v := m.Est
			c.ph0[m.Round] = &v
		}
		c.maybeResync(m.Round, m.Est, true)
	case Ph1QMsg:
		if m.Round >= c.round {
			bufferQuorMsg(c.ph1, m.Round, quorMsg{id: m.ID, sr: m.SR, labels: m.Labels, est: m.Est})
		}
		c.maybeResync(m.Round, m.Est, true)
	case Ph2QMsg:
		if m.Round >= c.round {
			bufferQuorMsg(c.ph2, m.Round, quorMsg{id: m.ID, sr: m.SR, labels: m.Labels, est: m.Est})
		}
		c.maybeResync(m.Round, m.Est, m.Est != Bottom)
	}
	c.step()
}

// onRejoin answers a peer's (REJOIN, r); see Fig8.onRejoin.
func (c *Fig9) onRejoin() {
	if c.answerRejoin() {
		return
	}
	c.env.Broadcast(RejoinAckMsg{Round: c.round, Phase: int(c.phase), SR: c.sr, Est: c.est1, Est2: c.est2})
}

// onRejoinAck handles a peer's position report. Besides the generic resync
// (round jumps and Coord/Ph0 escapes), a rejoiner stranded *inside*
// Phase 1 or 2 of the responder's round follows the responder: a responder
// already in Phase 2 concludes Phase 1 for the rejoiner (the ack plays the
// role of the buffered PH2 of lines 23–24, whose copies died with the
// outage), and a responder deeper into the same phase pulls the rejoiner's
// sub-round forward — it jumps to the responder's sub-round and broadcasts
// there, a (round, sub-round) it has never broadcast in (its sub-round
// counter survives the outage and only moves forward), so the per-sender
// uniqueness the HΣ quorum matching relies on is preserved. Without this,
// a rejoiner whose label set never changes again (recovery after the
// detector stabilized) has no trigger left and wedges the everyone-quorums
// of the whole system.
func (c *Fig9) onRejoinAck(m RejoinAckMsg) {
	c.maybeResync(m.Round, m.Est, true)
	if !c.rejoining || c.outcome.Decided || m.Round != c.round {
		return
	}
	switch {
	case c.phase == f9Ph1 && fig9Phase(m.Phase) == f9Ph2:
		// Phase 1 concluded elsewhere (lines 23–24, ack-carried).
		c.est2 = m.Est2
		c.enterPhase2()
	case c.phase == fig9Phase(m.Phase) && (c.phase == f9Ph1 || c.phase == f9Ph2) && m.SR > c.sr && wedgeCanary != "wedge":
		c.sr = m.SR
		c.currentLabels = c.d2.Labels()
		if c.phase == f9Ph1 {
			c.env.Broadcast(Ph1QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est1})
		} else {
			c.env.Broadcast(Ph2QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est2})
		}
	}
}

// maybeResync fast-forwards a rejoining process toward the live protocol
// state — see Fig8.maybeResync for the full safety argument. Higher rounds
// are joined at Phase 1 / sub-round 1 (the HΣ quorum matching is per
// (round, sub-round, sender), and the rejoiner's sub-round climb
// broadcasts at most once per sub-round, so sender multisets never see a
// duplicate); within the local round, a Coordination-Phase or Phase 0 wait
// whose messages were lost in the outage is skipped. Fig. 9 in particular
// needs the within-round escape: its HΣ quorums can require every
// eventually-up process, so a single wedged rejoiner would wedge the whole
// system.
func (c *Fig9) maybeResync(round int, est Value, adopt bool) {
	if !c.rejoining || c.outcome.Decided || wedgeCanary == "wedge" {
		// The wedgeCanary escape is CI-only: a canary build disables the
		// whole resync exchange to recreate the pre-fix rejoin wedge and
		// prove the scenario hunter still catches this bug class.
		return
	}
	switch {
	case round > c.round:
		if adopt {
			c.est1 = est
		}
		left := c.round
		c.round = round
		c.forgetRounds(left)
		// As in Fig8.maybeResync: a jumping leader still owes the target
		// round its COORD (homonymous variant only) and its Phase 0 push —
		// when churn takes out a whole leader group, the rejoiners are the
		// only processes that can unwedge the co-leader waits and the
		// followers' Phase 0.
		if c.leaderNow() {
			if !c.anonymous() {
				c.env.Broadcast(CoordMsg{ID: c.env.ID(), Round: c.round, Est: c.est1})
			}
			c.env.Broadcast(Ph0Msg{Round: c.round, Est: c.est1})
		}
		c.enterPhase1()
	case round == c.round && c.phase == f9Coord:
		if adopt {
			c.est1 = est
		}
		c.phase = f9Ph0
	case round == c.round && c.phase == f9Ph0 && !c.leaderNow():
		if adopt {
			c.est1 = est
		}
		c.enterPhase1()
	}
}

func bufferQuorMsg(bufs map[int]*quorBuf, round int, m quorMsg) {
	b := bufs[round]
	if b == nil {
		b = &quorBuf{}
		bufs[round] = b
	}
	b.add(m)
}

func (c *Fig9) step() {
	if c.env == nil {
		return
	}
	for !c.outcome.Decided {
		if c.maxRounds > 0 && c.round > c.maxRounds {
			return
		}
		var progress bool
		switch c.phase {
		case f9Coord:
			progress = c.stepCoord()
		case f9Ph0:
			progress = c.stepPh0()
		case f9Ph1:
			progress = c.stepPh1()
		case f9Ph2:
			progress = c.stepPh2()
		}
		if !progress {
			return
		}
	}
}

// stepCoord mirrors Fig. 8's Leaders' Coordination Phase (lines 9–14).
func (c *Fig9) stepCoord() bool {
	ld, ok := c.d1.Leader()
	iAmLeader := ok && ld.ID == c.env.ID()
	need := ld.Multiplicity
	if need < 1 {
		need = 1
	}
	if iAmLeader && len(c.coord[c.round]) < need {
		return false
	}
	if ests := c.coord[c.round]; len(ests) > 0 {
		c.est1 = minValue(ests)
	}
	c.phase = f9Ph0
	return true
}

// stepPh0 is Phase 0 (lines 16–18) and the entry to Phase 1 (lines 20–21).
func (c *Fig9) stepPh0() bool {
	v := c.ph0[c.round]
	if !c.leaderNow() && v == nil {
		return false
	}
	if v != nil {
		c.est1 = *v
	}
	c.env.Broadcast(Ph0Msg{Round: c.round, Est: c.est1})
	c.enterPhase1()
	return true
}

func (c *Fig9) leaderNow() bool {
	if c.anonymous() {
		return c.d3.IsLeader()
	}
	ld, ok := c.d1.Leader()
	return ok && ld.ID == c.env.ID()
}

func (c *Fig9) enterPhase1() {
	c.phase = f9Ph1
	c.sr = 1
	c.currentLabels = c.d2.Labels()
	c.env.Broadcast(Ph1QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est1})
}

func (c *Fig9) enterPhase2() {
	c.phase = f9Ph2
	c.sr = 1
	c.currentLabels = c.d2.Labels()
	c.env.Broadcast(Ph2QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est2})
}

// stepPh1 is Phase 1's repeat loop (lines 22–38).
func (c *Fig9) stepPh1() bool {
	// Lines 23–24: a PH2 for this round means Phase 1 concluded elsewhere.
	if buf := c.ph2[c.round]; buf != nil {
		c.est2 = buf.msgs[0].est
		c.enterPhase2()
		return true
	}
	// Lines 25–31: quorum match.
	if rec, ok := c.matchQuorum(c.ph1[c.round]); ok {
		if allSame(rec) {
			c.est2 = rec[0]
		} else {
			c.est2 = Bottom
		}
		c.enterPhase2()
		return true
	}
	// Lines 32–36: sub-round advance.
	if c.advanceSubRound(c.ph1[c.round]) {
		c.env.Broadcast(Ph1QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est1})
		return true
	}
	return false
}

// stepPh2 is Phase 2's repeat loop (lines 42–61).
func (c *Fig9) stepPh2() bool {
	// Lines 43–44: someone reached round r+1; follow.
	if c.nextRoundSignal() {
		c.nextRound()
		return true
	}
	// Lines 45–54: quorum match and the three reception cases.
	if rec, ok := c.matchQuorum(c.ph2[c.round]); ok {
		// A matched Phase 2 quorum means the process is a normal
		// participant again: no further rejoin fast-forwards.
		c.rejoining = false
		kind, v := classifyRec(distinct(rec))
		switch kind {
		case recAllSameValue:
			c.decide(v, c.round)
			return true
		case recValueAndBot:
			c.est1 = v
		case recAllBot:
			// skip
		default:
			c.invariant(false, "fig9: round %d rec contains two non-⊥ values: %v", c.round, rec)
		}
		c.nextRound()
		return true
	}
	// Lines 55–59: sub-round advance.
	if c.advanceSubRound(c.ph2[c.round]) {
		c.env.Broadcast(Ph2QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est2})
		return true
	}
	return false
}

// nextRoundSignal detects that some process already started round r+1: a
// COORD of r+1 in the homonymous variant (line 43), any round-r+1 traffic
// in the anonymous baseline (which has no COORD messages).
func (c *Fig9) nextRoundSignal() bool {
	if !c.anonymous() {
		return c.coordSeen[c.round+1]
	}
	return c.ph0[c.round+1] != nil || c.ph1[c.round+1] != nil
}

func (c *Fig9) nextRound() {
	c.round++
	c.forgetRounds(c.round - 1)
	c.startRound()
}

// forgetRounds drops the reception buffers of rounds [from, c.round), the
// ones the process just left.
func (c *Fig9) forgetRounds(from int) {
	for r := from; r < c.round; r++ {
		delete(c.coord, r)
		delete(c.coordSeen, r)
		delete(c.ph0, r)
		delete(c.ph1, r)
		delete(c.ph2, r)
	}
}

// advanceSubRound implements the two triggers of lines 32–33 / 55–56:
// the local h_labels grew, or a peer message of this round carries a
// higher sub-round.
func (c *Fig9) advanceSubRound(buf *quorBuf) bool {
	labels := c.d2.Labels()
	if fd.LabelsEqual(c.currentLabels, labels) && buf.maxSR() <= c.sr {
		return false
	}
	c.sr++
	c.currentLabels = labels
	return true
}

// matchQuorum searches for a pair (x, mset) ∈ D2.h_quora, a sub-round sr,
// and a set M of this round's messages of sub-round sr, all carrying label
// x, whose sender identifiers form exactly the multiset mset (lines
// 25–28 / 45–48). It returns the estimates of a deterministic such M
// (earliest arrivals per identifier, in arrival order).
//
// Such an M exists iff mset ⊆ avail(sr, x) — see quorBuf for the index
// invariant — so the guard is |h_quora| · sub-rounds lookups, pairs in
// detector order and sub-rounds ascending, and allocates nothing unless it
// holds; only then is that one sub-round rescanned to pick M.
func (c *Fig9) matchQuorum(buf *quorBuf) ([]Value, bool) {
	if buf == nil {
		return nil, false
	}
	for _, pair := range c.d2.Quora() {
		for i := range buf.srs {
			s := &buf.srs[i]
			if e := s.find(pair.Label); e == nil || !pair.M.SubsetOf(e.senders) {
				continue
			}
			need := pair.M.Counts()
			rec := make([]Value, 0, pair.M.Len())
			for _, m := range buf.msgs {
				if m.sr == s.sr && need[m.id] > 0 && slices.Contains(m.labels, pair.Label) {
					need[m.id]--
					rec = append(rec, m.est)
				}
			}
			return rec, true
		}
	}
	return nil, false
}

func allSame(vs []Value) bool {
	for _, v := range vs[1:] {
		if v != vs[0] {
			return false
		}
	}
	return true
}

// Round returns the current round (observability).
func (c *Fig9) Round() int { return c.round }

// SubRound returns the current sub-round (observability).
func (c *Fig9) SubRound() int { return c.sr }

// Rejoining reports whether the process is in rejoin catch-up: recovered
// from an outage and not yet through a full Phase 2 quorum (observability).
func (c *Fig9) Rejoining() bool { return c.rejoining }

// SetMaxRounds bounds the rounds executed (0 = unlimited); adversarial
// experiments use it to stop non-deciding configurations gracefully.
func (c *Fig9) SetMaxRounds(k int) { c.maxRounds = k }
