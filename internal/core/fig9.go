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
// fd.HSigma.Labels returns an immutable slice (a detector replaces its
// output, never writes to it), so nothing writes to it after the broadcast.
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

// Fig9 is the per-process consensus instance for HAS[HΩ, HΣ] (Figure 9,
// Theorem 8): it tolerates any number of crashes and needs neither n nor t
// nor the membership. The round structure is the embedded skeleton's, as in
// Fig8; what is Fig. 9's own is the quorum rule. Quorums come from the HΣ
// detector: Phases 1 and 2 run in sub-rounds, re-broadcasting whenever the
// local h_labels knowledge grows or a peer is seen in a later sub-round,
// until some h_quora pair (x, mset) is matched by messages of one
// sub-round all carrying label x whose sender identifiers form exactly
// mset.
//
// Constructed with NewFig9Anonymous instead, it becomes the anonymous
// baseline the paper derives it from (§5.3 closing remark): leadership
// comes from an AΩ detector and the Leaders' Coordination Phase is
// removed — the resulting Phase 0 matches Figure 3 of [6].
type Fig9 struct {
	skeleton
	d2 fd.HSigma

	sr            int
	currentLabels []fd.Label

	// PH1/PH2 arrivals by round; nil until a round's first one arrives.
	ph1 map[int]*quorBuf
	ph2 map[int]*quorBuf
}

var (
	_ sim.Process   = (*Fig9)(nil)
	_ sim.Poller    = (*Fig9)(nil)
	_ sim.Recoverer = (*Fig9)(nil)
)

// NewFig9 creates the homonymous instance with detectors D1 ∈ HΩ, D2 ∈ HΣ.
func NewFig9(d1 fd.HOmega, d2 fd.HSigma, proposal Value) *Fig9 {
	c := newFig9(d2, proposal)
	c.hOmega = d1
	return c
}

// NewFig9Anonymous creates the anonymous baseline with D3 ∈ AΩ, D2 ∈ HΣ
// (an AΣ detector can be lifted to HΣ with reduce.ASigmaToHSigma, matching
// the paper's AAS[AΩ, AΣ] setting).
func NewFig9Anonymous(d3 fd.AOmega, d2 fd.HSigma, proposal Value) *Fig9 {
	c := newFig9(d2, proposal)
	c.aOmega = d3
	c.skipCoord = true
	return c
}

func newFig9(d2 fd.HSigma, proposal Value) *Fig9 {
	c := &Fig9{d2: d2, ph1: make(map[int]*quorBuf), ph2: make(map[int]*quorBuf)}
	c.skeleton = newSkeleton(c, proposal)
	return c
}

func (c *Fig9) buffer(payload any) (int, Value) {
	switch m := payload.(type) {
	case Ph1QMsg:
		if m.Round >= c.round {
			bufferQuorMsg(c.ph1, m.Round, quorMsg{id: m.ID, sr: m.SR, labels: m.Labels, est: m.Est})
		}
		return m.Round, m.Est
	case Ph2QMsg:
		if m.Round >= c.round {
			bufferQuorMsg(c.ph2, m.Round, quorMsg{id: m.ID, sr: m.SR, labels: m.Labels, est: m.Est})
		}
		return m.Round, m.Est
	}
	return 0, Bottom
}

func bufferQuorMsg(bufs map[int]*quorBuf, round int, m quorMsg) {
	b := bufs[round]
	if b == nil {
		b = &quorBuf{}
		bufs[round] = b
	}
	b.add(m)
}

func (c *Fig9) forget(round int) {
	delete(c.ph1, round)
	delete(c.ph2, round)
}

func (c *Fig9) subRound() int { return c.sr }

// view is the identity of h_labels and h_quora, all that Phases 1 and 2
// read of the detectors.
func (c *Fig9) view() quorumView {
	return quorumView{idOf(c.d2.Labels()), idOf(c.d2.Quora())}
}

func (c *Fig9) nextChange(now sim.Time) sim.Time { return nextChange(c.d2, now) }

// followAck is what a REJOIN_ACK means to a rejoiner stranded *inside*
// Phase 1 or 2 of the responder's round, beyond the skeleton's resync: a
// responder already in Phase 2 concludes Phase 1 for the rejoiner (the ack
// plays the role of the buffered PH2 of lines 23–24, whose copies died with
// the outage), and a responder deeper into the same phase pulls the
// rejoiner's sub-round forward — it jumps to the responder's sub-round and
// broadcasts there, a (round, sub-round) it has never broadcast in (its
// sub-round counter survives the outage and only moves forward), so the
// per-sender uniqueness the HΣ quorum matching relies on is preserved.
// Without this, a rejoiner whose label set never changes again (recovery
// after the detector stabilized) has no trigger left and wedges the
// everyone-quorums of the whole system.
func (c *Fig9) followAck(m RejoinAckMsg) {
	switch {
	case c.phase == inPh1 && phase(m.Phase) == inPh2:
		c.est2 = m.Est2
		c.enterPh2()
	case c.phase == phase(m.Phase) && c.phase >= inPh1 && m.SR > c.sr:
		c.sr = m.SR
		c.currentLabels = c.d2.Labels()
		c.announce()
	}
}

// enterPh1 is lines 20–21; the skeleton has set the phase.
func (c *Fig9) enterPh1() { c.startPhase() }

// enterPh2 is lines 40–41.
func (c *Fig9) enterPh2() {
	c.phase = inPh2
	c.startPhase()
}

// startPhase opens the current phase at sub-round 1.
func (c *Fig9) startPhase() {
	c.sr = 1
	c.currentLabels = c.d2.Labels()
	c.announce()
}

// announce broadcasts the current phase's message — PH1 carrying est1 or
// PH2 carrying est2 — at the current sub-round.
func (c *Fig9) announce() {
	if c.phase == inPh1 {
		c.env.Broadcast(Ph1QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est1})
	} else {
		c.env.Broadcast(Ph2QMsg{ID: c.env.ID(), Round: c.round, SR: c.sr, Labels: c.currentLabels, Est: c.est2})
	}
}

// stepPh1 is Phase 1's repeat loop (lines 22–38).
func (c *Fig9) stepPh1() bool {
	// Lines 23–24: a PH2 for this round means Phase 1 concluded elsewhere.
	if buf := c.ph2[c.round]; buf != nil {
		c.est2 = buf.msgs[0].est
		c.enterPh2()
		return true
	}
	// Lines 25–31: quorum match.
	if rec, ok := c.matchQuorum(c.ph1[c.round]); ok {
		if allSame(rec) {
			c.est2 = rec[0]
		} else {
			c.est2 = Bottom
		}
		c.enterPh2()
		return true
	}
	// Lines 32–36: sub-round advance.
	return c.advanceSubRound(c.ph1[c.round])
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
		c.closePh2(rec)
		return true
	}
	// Lines 55–59: sub-round advance.
	return c.advanceSubRound(c.ph2[c.round])
}

// nextRoundSignal detects that some process already started round r+1: a
// COORD of r+1 in the homonymous variant (line 43), any round-r+1 traffic
// in the anonymous baseline (which has no COORD messages).
func (c *Fig9) nextRoundSignal() bool {
	next := c.rounds[c.round+1]
	if c.aOmega == nil {
		return next.coordSeen
	}
	return next.ph0Seen || c.ph1[c.round+1] != nil
}

// advanceSubRound implements the two triggers of lines 32–33 / 55–56 —
// the local h_labels grew, or a peer message of this round carries a
// higher sub-round — and the re-broadcast at the new sub-round. The same
// slice as current_labels is the same label set (fd.HSigma's contract), so
// the set comparison runs only when the detector replaced its output.
func (c *Fig9) advanceSubRound(buf *quorBuf) bool {
	labels := c.d2.Labels()
	same := idOf(labels) == idOf(c.currentLabels) || fd.LabelsEqual(c.currentLabels, labels)
	if same && buf.maxSR() <= c.sr {
		return false
	}
	c.sr++
	c.currentLabels = labels
	c.announce()
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
