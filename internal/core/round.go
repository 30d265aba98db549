package core

import (
	"repro/internal/fd"
	"repro/internal/sim"
)

// phase is a process's position inside a round. RejoinAckMsg.Phase carries
// it as an int.
type phase int

const (
	inCoord phase = iota + 1 // Leaders' Coordination Phase (lines 9–14)
	inPh0                    // Phase 0 (lines 16–18)
	inPh1
	inPh2
)

// quorumRule is what the paper says differs between Figure 8 and Figure 9:
// how Phases 1 and 2 collect a quorum. The skeleton calls it; a rule reads
// and writes the skeleton's round state through the embedding.
type quorumRule interface {
	// enterPh1 makes the round's first Phase 1 broadcast; the skeleton has
	// already set the phase.
	enterPh1()
	// stepPh1 and stepPh2 evaluate their phase's guards once and report
	// whether one fired. stepPh1 moves to inPh2 itself; stepPh2 hands a
	// matched quorum to closePh2.
	stepPh1() bool
	stepPh2() bool
	// buffer keeps a PH1/PH2 arrival of the current or a later round and
	// returns the round and estimate it carries — for any arrival, kept or
	// not, since both are the resync signal. Another payload yields round 0,
	// which is below every round and so signals nothing.
	buffer(payload any) (round int, est Value)
	// forget drops the PH1/PH2 arrivals of a round the process left.
	forget(round int)
	// subRound is the position inside Phase 1/2 that a REJOIN_ACK reports
	// (0 under Fig. 8, which has no sub-rounds).
	subRound() int
	// followAck lets a rejoiner stranded inside Phase 1/2 of the
	// responder's round catch up from the ack alone.
	followAck(m RejoinAckMsg)
	// view reads what the Phase 1/2 guards read of the detectors, and
	// nextChange the first instant after now at which it may differ.
	view() quorumView
	nextChange(now sim.Time) sim.Time
}

// leaderView and quorumView are the step memo's views of the detectors:
// what a phase's guards read of them, in a form that compares in constant
// time and allocates nothing. Each is returned by value and fits in four
// machine words, which the compiler keeps in registers; a larger struct is
// copied through memory on every return and comparison.
//
// leaderView is what the Coordination Phase and Phase 0 read: HΩ's output,
// or AΩ's flag.
type leaderView struct {
	leader fd.LeaderInfo
	ok     bool // HΩ has an output, or AΩ's flag
}

// quorumView is what Phases 1 and 2 read: under Fig. 9, the identity of
// h_labels and h_quora. fd.HSigma's contract makes identity a change
// signal: a detector replaces an output that changes and never writes to
// one it returned. Fig. 8's quorums read no detector, so its view is zero.
type quorumView struct {
	labels sliceID[fd.Label]
	quora  sliceID[fd.QuorumPair]
}

// sliceID is a slice's identity: the address of its first element (nil
// when it is empty) and its length. A view holding it keeps the array
// alive, so no later output can be allocated at the same address.
type sliceID[T any] struct {
	first *T
	n     int
}

func idOf[T any](s []T) sliceID[T] {
	if len(s) == 0 {
		return sliceID[T]{}
	}
	return sliceID[T]{&s[0], len(s)}
}

// heard is what one round's COORD and PH0 arrivals left behind.
type heard struct {
	coord     []Value // estimates of the COORDs addressed to this identifier
	coordSeen bool    // some COORD of the round arrived (Fig. 9 line 43 reads it)
	ph0       Value   // the first PH0 estimate, once ph0Seen
	ph0Seen   bool
}

// skeleton is the round structure Figures 8 and 9 share line for line:
// propose, the Leaders' Coordination Phase, Phase 0, the Phase 2 reception
// cases, Task T2 — and, beyond the paper, the crash-recovery rejoin
// protocol. Fig8 and Fig9 embed it and supply a quorumRule.
type skeleton struct {
	decider
	rule     quorumRule
	proposal Value

	// The three ways a variant departs from "HΩ leaders, coordinated":
	// hOmega elects the leaders unless aOmega is set (the anonymous
	// baseline, in which no COORD is ever sent), and skipCoord starts every
	// round at Phase 0.
	hOmega    fd.HOmega
	aOmega    fd.AOmega
	skipCoord bool
	maxRounds int // 0 = unlimited

	round int
	phase phase
	est1  Value // never ⊥
	est2  Value

	// rounds holds COORD/PH0 arrivals for the current round and later ones
	// only: the guards read it at round and round+1, round never decreases,
	// arrivals for past rounds are not kept and forgetRounds drops a
	// round's entry when the process leaves it. A rule's PH1/PH2 buffers
	// follow the same discipline.
	rounds map[int]heard

	// epoch tags the heartbeat timer chain. An outage strands the pre-crash
	// timer (timers firing on a down process are dropped, but one set just
	// before the crash can outlive the outage); bumping the epoch on
	// recovery makes such stale timers recognizable, so the restarted chain
	// is the only live one.
	epoch int
	// rejoining, set on recovery, enables the round-resync fast-forward: any
	// protocol message of a round above the local one (a REJOIN_ACK, or
	// ordinary traffic from peers that moved on) pulls the process into that
	// round's Phase 1. It stays set until the process closes a full Phase 2
	// quorum — one successful round means it is a normal participant again.
	rejoining bool

	// quiet records that the last step found no guard to fire, and seenLeader
	// or seenQuorum (by phase) the detector outputs its guards read then.
	// Such a step writes nothing, so until a handler writes guard state again
	// (OnMessage, OnRecover and Init clear quiet) a step that sees the same
	// outputs would find the same: it returns at once. wake is the first
	// instant at which those outputs may differ from the ones seen (see
	// nextChange): before it, the step does not even read them.
	quiet      bool
	seenLeader leaderView
	seenQuorum quorumView
	wake       sim.Time
}

func newSkeleton(rule quorumRule, proposal Value) skeleton {
	return skeleton{rule: rule, proposal: proposal, rounds: make(map[int]heard)}
}

// SetMaxRounds bounds the number of rounds executed (0 = unlimited);
// ablation and adversarial experiments use it to stop non-terminating
// configurations.
func (c *skeleton) SetMaxRounds(k int) { c.maxRounds = k }

// Round returns the current round (observability).
func (c *skeleton) Round() int { return c.round }

// Init implements sim.Process: propose(v).
func (c *skeleton) Init(env sim.Environment) {
	c.env = env
	c.quiet = false
	if c.proposal == Bottom {
		panic("core: Bottom must not be proposed")
	}
	c.est1 = c.proposal
	c.round = 1
	c.startRound()
	env.SetTimer(heartbeat, c.epoch)
	c.step()
}

func (c *skeleton) startRound() {
	if c.skipCoord {
		c.phase = inPh0
		return
	}
	c.phase = inCoord
	c.env.Broadcast(CoordMsg{ID: c.env.ID(), Round: c.round, Est: c.est1})
}

// nextRound leaves the current round for the one after it.
func (c *skeleton) nextRound() {
	c.round++
	c.forgetRounds(c.round - 1)
	c.startRound()
}

// forgetRounds drops what was buffered for rounds [from, c.round), the ones
// the process just left.
func (c *skeleton) forgetRounds(from int) {
	for r := from; r < c.round; r++ {
		delete(c.rounds, r)
		c.rule.forget(r)
	}
}

// OnTimer implements sim.Process: the heartbeat re-evaluates guards whose
// truth changed with virtual time only (detector stabilization). A decided
// process stops its heartbeat so that finished executions drain. Timers of
// an older epoch are stale pre-outage survivors: they do not re-arm, since
// OnRecover started a fresh chain, but they still re-evaluate the guards.
// Virtual time has moved since the last step, and the node does not
// re-poll the module whose own timer fired (sim.Poller's contract).
//
// A heartbeat of a quiet process before its wake only re-arms: step reads
// nothing. So every handler that leaves the process quiet ends by telling
// the environment so (sim.Environment.Snooze, in step), and the engine
// re-arms such heartbeats itself without calling OnTimer — the same
// timer events with the same seqs, none of them dispatched.
func (c *skeleton) OnTimer(tag int) {
	if tag == c.epoch && !c.outcome.Decided {
		c.env.SetTimer(heartbeat, c.epoch)
	}
	c.step()
}

// OnRecover implements sim.Recoverer: the rejoin protocol. The process
// re-arms its timer chain under a fresh epoch and broadcasts (REJOIN, r);
// peers answer from their current round state (RejoinAckMsg) or, if they
// already decided, by re-sending DECIDE — so the rejoiner either
// fast-forwards into the live round or adopts the decision through the
// Task T2 relay. A process that had decided before the outage keeps its
// decision (state survives a crash) and only re-relays it.
func (c *skeleton) OnRecover() {
	if c.env == nil {
		return // crashed before Init ran; the engine never started this instance
	}
	c.epoch++
	c.quiet = false
	if c.relayAgain() {
		// The pre-crash DECIDE broadcast may have been lost in part (e.g. a
		// crash during the broadcast itself).
		return
	}
	c.rejoining = true
	c.env.SetTimer(heartbeat, c.epoch)
	c.env.Broadcast(RejoinMsg{Round: c.round})
	c.step()
}

// Poll implements sim.Poller: co-located module activity (the detectors)
// may have changed guard values. Every handler ends in c.step(), so a
// handler already leaves the fixpoint Poll would; at a fixpoint, a poll
// that finds the detector outputs unchanged evaluates no guard.
func (c *skeleton) Poll() { c.step() }

// OnMessage implements sim.Process. Every round-stamped message doubles as
// a resync signal for a rejoining process (maybeResync); the message is
// recorded in its reception buffer first (unless its round was already
// left), so a message that triggers the jump still counts toward its
// round's quorums.
func (c *skeleton) OnMessage(payload any) {
	c.quiet = false
	switch m := payload.(type) {
	case DecideMsg:
		c.onDecide(m)
	case RejoinMsg:
		c.onRejoin()
	case RejoinAckMsg:
		c.maybeResync(m.Round, m.Est)
		if c.resyncing() && m.Round == c.round {
			c.rule.followAck(m)
		}
	case CoordMsg:
		if m.Round >= c.round {
			h := c.rounds[m.Round]
			h.coordSeen = true
			if m.ID == c.env.ID() {
				h.coord = append(h.coord, m.Est)
			}
			c.rounds[m.Round] = h
		}
		c.maybeResync(m.Round, m.Est)
	case Ph0Msg:
		if h := c.rounds[m.Round]; m.Round >= c.round && !h.ph0Seen {
			h.ph0, h.ph0Seen = m.Est, true
			c.rounds[m.Round] = h
		}
		c.maybeResync(m.Round, m.Est)
	default:
		c.maybeResync(c.rule.buffer(payload))
	}
	c.step()
}

// onRejoin answers a peer's (REJOIN, r): a decided process re-sends DECIDE
// (T2 re-relay), everyone else reports its current position.
func (c *skeleton) onRejoin() {
	if c.relayAgain() {
		return
	}
	c.env.Broadcast(RejoinAckMsg{Round: c.round, Phase: int(c.phase), SR: c.rule.subRound(), Est: c.est1, Est2: c.est2})
}

// resyncing reports whether the rejoin fast-forward applies. The
// wedgeCanary escape is CI-only: a canary build disables the whole resync
// exchange to recreate the pre-fix rejoin wedge and prove the scenario
// hunter still catches this bug class.
func (c *skeleton) resyncing() bool {
	return c.rejoining && !c.outcome.Decided && wedgeCanary != "wedge"
}

// maybeResync fast-forwards a rejoining process toward the live protocol
// state on hearing of a round and an estimate circulating in it (⊥ — a PH2
// may carry it — is never adopted). A round above the local one is joined at
// Phase 1, casting this process's first — and only — Phase 1 vote there
// (rounds are monotone, so a strictly higher round was never voted in).
// Within the local round, the process may be wedged in a wait whose
// messages were lost during the outage: a leader in the Coordination Phase
// skips the co-leader wait (safety rests on the Phase 1/2 quorums alone),
// and a non-leader in Phase 0 whose leader push was lost adopts the
// circulating estimate and joins Phase 1 — in both cases no Phase 1/2
// broadcast of this round has been made yet, so no vote is ever duplicated.
// Adopting a circulating est1 is safe because after a decision of v every
// est1 in any later round equals v (the Phase 2 quorum-intersection lock),
// and before one, est1 values only seed votes. Under Fig. 9's rule "one
// vote" reads "one per sub-round": a round is joined at sub-round 1 and the
// sub-round climb broadcasts at most once per sub-round, so the sender
// multisets its HΣ quorums are matched against never see a duplicate — and
// since such a quorum can require every eventually-up process, Fig. 9 needs
// the within-round escapes: one wedged rejoiner would wedge the system.
func (c *skeleton) maybeResync(round int, est Value) {
	if !c.resyncing() {
		return
	}
	switch {
	case round > c.round:
		c.adopt(est)
		left := c.round
		c.round = round
		c.forgetRounds(left)
		// A jumping leader must still play its leader part in the target
		// round: the co-leaders' Coordination Phase counts its COORD, and
		// the followers' Phase 0 waits for a leader push — if every holder
		// of the leading identifier is a rejoiner (churn does not spare
		// leader groups), skipping these would wedge the whole system in a
		// silent round. Both are estimate carriers, not votes, so the
		// once-per-round discipline (first entry into the round) keeps them
		// safe.
		if c.leaderNow() {
			if c.aOmega == nil {
				c.env.Broadcast(CoordMsg{ID: c.env.ID(), Round: c.round, Est: c.est1})
			}
			c.env.Broadcast(Ph0Msg{Round: c.round, Est: c.est1})
		}
		c.enterPh1()
	case round == c.round && c.phase == inCoord:
		c.adopt(est)
		c.phase = inPh0
	case round == c.round && c.phase == inPh0 && !c.leaderNow():
		c.adopt(est)
		c.enterPh1()
	}
}

func (c *skeleton) adopt(est Value) {
	if est != Bottom {
		c.est1 = est
	}
}

// leaderNow reports whether the detector currently elects this process.
func (c *skeleton) leaderNow() bool {
	if c.aOmega != nil {
		return c.aOmega.IsLeader()
	}
	ld, ok := c.hOmega.Leader()
	return ok && ld.ID == c.env.ID()
}

// step runs the state machine until no guard fires. A step that finds
// nothing to fire leaves the process quiet, remembering the detector
// outputs it read and when they may next change; a later step returns at
// once while they are unchanged, and before that instant without reading
// them. A process left quiet — it has not decided, since a decided one
// never goes quiet — snoozes its heartbeat until then.
func (c *skeleton) step() {
	if c.env == nil {
		return
	}
	now := c.env.Now()
	switch {
	case !c.quiet || now >= c.wake && !c.unmoved():
		c.run(now)
	case now >= c.wake:
		c.wake = c.nextChange(now)
	}
	if c.quiet && c.wake > now {
		c.env.Snooze(heartbeat, c.epoch, c.wake)
	}
}

// run evaluates guards until none fires, the process decides, or it
// passes its round bound; the first leaves it quiet.
func (c *skeleton) run(now sim.Time) {
	c.quiet = false
	for !c.outcome.Decided {
		if c.maxRounds > 0 && c.round > c.maxRounds {
			return
		}
		if !c.fire() {
			c.quiet = true
			if c.phase >= inPh1 {
				c.seenQuorum = c.rule.view()
			} else {
				c.seenLeader = c.leaderView()
			}
			c.wake = c.nextChange(now)
			return
		}
	}
}

// unmoved reports whether the detector outputs the current phase's guards
// read are still those the last step saw.
func (c *skeleton) unmoved() bool {
	if c.phase >= inPh1 {
		return c.rule.view() == c.seenQuorum
	}
	return c.leaderView() == c.seenLeader
}

// nextChange is the first instant after now at which the detector outputs
// the current phase's guards read may differ from their values at now.
func (c *skeleton) nextChange(now sim.Time) sim.Time {
	if c.phase >= inPh1 {
		return c.rule.nextChange(now)
	}
	if c.aOmega != nil {
		return nextChange(c.aOmega, now)
	}
	return nextChange(c.hOmega, now)
}

// nextChange is d's fd.Timed answer. Any other detector's output may change
// at its next event, so the answer is now: the step reads it every time.
func nextChange(d any, now sim.Time) sim.Time {
	if t, ok := d.(fd.Timed); ok {
		return t.NextChange(now)
	}
	return now
}

// fire evaluates the current phase's guards once and reports whether one
// fired.
func (c *skeleton) fire() bool {
	switch c.phase {
	case inCoord:
		return c.stepCoord()
	case inPh0:
		return c.stepPh0()
	case inPh1:
		return c.rule.stepPh1()
	case inPh2:
		return c.rule.stepPh2()
	}
	return false
}

// leaderView reads what the Coordination Phase and Phase 0 read of the
// detectors.
func (c *skeleton) leaderView() leaderView {
	if c.aOmega != nil {
		return leaderView{ok: c.aOmega.IsLeader()}
	}
	ld, ok := c.hOmega.Leader()
	return leaderView{ld, ok}
}

// stepCoord is the Leaders' Coordination Phase wait (lines 9–14): leaders
// wait for COORD messages from all h_multiplicity homonym co-leaders and
// adopt the minimum estimate; non-leaders pass straight through.
func (c *skeleton) stepCoord() bool {
	ld, ok := c.hOmega.Leader()
	ests := c.rounds[c.round].coord
	if ok && ld.ID == c.env.ID() && len(ests) < max(ld.Multiplicity, 1) {
		return false
	}
	if len(ests) > 0 {
		c.est1 = minValue(ests)
	}
	c.phase = inPh0
	return true
}

// stepPh0 is Phase 0 (lines 16–18) and the entry to Phase 1: leaders push
// their estimate; everyone else adopts the first leader estimate received;
// all re-broadcast it and cast their Phase 1 vote.
func (c *skeleton) stepPh0() bool {
	h := c.rounds[c.round]
	if !c.leaderNow() && !h.ph0Seen {
		return false
	}
	if h.ph0Seen {
		c.est1 = h.ph0
	}
	c.env.Broadcast(Ph0Msg{Round: c.round, Est: c.est1})
	c.enterPh1()
	return true
}

func (c *skeleton) enterPh1() {
	c.phase = inPh1
	c.rule.enterPh1()
}

// closePh2 consumes the estimates of a Phase 2 quorum (lines 31–34 of
// Fig. 8, 49–53 of Fig. 9): decide on a unanimous non-⊥ value, adopt a
// partially-supported one, skip on all-⊥ — and, unless decided, move to
// the next round. Closing a full Phase 2 quorum means the process is a
// normal participant again: no further rejoin fast-forwards.
func (c *skeleton) closePh2(rec []Value) {
	c.rejoining = false
	switch kind, v := classifyRec(distinct(rec)); kind {
	case recAllSameValue:
		c.decide(v, c.round)
		return
	case recValueAndBot:
		c.est1 = v
	case recAllBot:
		// skip
	default:
		c.invariant(false, "core: round %d rec contains two non-⊥ values: %v", c.round, rec)
	}
	c.nextRound()
}
