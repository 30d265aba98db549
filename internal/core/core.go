package core

import (
	"fmt"
	"slices"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Value is a consensus proposal. The reserved Bottom value ⊥ must not be
// proposed; Fig. 8/9 use it as the "no majority" marker.
type Value string

// Bottom is the distinguished ⊥ value of Phases 1–2.
const Bottom Value = "\x00⊥"

// heartbeat is the guard re-evaluation period. Guards are also re-checked
// on every message and every co-located module event; the heartbeat only
// guarantees progress when a guard's truth depends purely on virtual time
// (an oracle detector stabilizing) and keeps virtual time advancing. A
// quiet process snoozes it until the detectors it reads may change
// (skeleton.step): the ticks still fire, and the engine re-arms them.
const heartbeat sim.Time = 5

// Outcome reports one process's consensus result. Round is the round in
// which the decision was originally reached — for a relayed decision that
// is the deciding process's round (carried in DecideMsg), not the local
// round of whoever learned it.
type Outcome struct {
	Decided bool
	Value   Value
	Round   int      // round in which the decision was originally reached
	Time    sim.Time // virtual decision time (local: when this process learned it)
	// Relayed marks an outcome adopted from a received DECIDE rather than
	// decided by this process's own Phase 2 quorum. Checkers use it to
	// assert round agreement: every relayed round must name a round in
	// which some process actually decided.
	Relayed bool
}

// DecideMsg implements the reliable broadcast of Task T2: a decided value
// is relayed once by every process that learns it. Round carries the round
// the decision was reached in, so relayed outcomes report the deciding
// round rather than the receiver's local one.
type DecideMsg struct {
	Val   Value
	Round int
}

// MsgTag implements sim.Tagger.
func (DecideMsg) MsgTag() string { return "DECIDE" }

// RejoinMsg is the (REJOIN, r) round-resync request a recovered process
// broadcasts: "I was down, my protocol view stops at round r — where is
// everyone?". Peers answer from their current round state (RejoinAckMsg),
// and peers that already decided re-send their DECIDE instead (the Task T2
// relay, re-armed for rejoiners).
type RejoinMsg struct {
	Round int
}

// MsgTag implements sim.Tagger.
func (RejoinMsg) MsgTag() string { return "REJOIN" }

// RejoinAckMsg answers a REJOIN with the responder's current position:
// round, phase (1 = Leaders' Coordination, 2 = Phase 0, 3 = Phase 1,
// 4 = Phase 2), sub-round (Fig. 9; 0 in Fig. 8), and estimates. A
// rejoining process fast-forwards to the highest round it hears of and
// re-enters the protocol at that round's Phase 1 — a round it has never
// voted in (rounds are monotone), so the quorum-intersection safety
// argument is untouched. Within its own round, Fig. 9 additionally follows
// the responder's phase and sub-round (see Fig9.followAck): its HΣ
// quorums can require every eventually-up process, so a rejoiner stranded
// mid-phase — peers consumed its pre-crash quorum message and moved on,
// their later traffic died with the outage — must be able to catch up from
// the acks alone.
type RejoinAckMsg struct {
	Round int
	Phase int
	SR    int
	Est   Value
	Est2  Value
}

// MsgTag implements sim.Tagger.
func (RejoinAckMsg) MsgTag() string { return "REJOIN_ACK" }

// CoordMsg is the Leaders' Coordination Phase message (COORD, id, r, est).
type CoordMsg struct {
	ID    ident.ID
	Round int
	Est   Value
}

// MsgTag implements sim.Tagger.
func (CoordMsg) MsgTag() string { return "COORD" }

// Ph0Msg is the Phase 0 message (PH0, r, est).
type Ph0Msg struct {
	Round int
	Est   Value
}

// MsgTag implements sim.Tagger.
func (Ph0Msg) MsgTag() string { return "PH0" }

// decider holds the decide/relay logic of Task T2; the round skeleton
// embeds it.
type decider struct {
	env     sim.Environment
	outcome Outcome
	invalid error // violated internal invariant, surfaced to tests
}

// Decided implements the public outcome query.
func (d *decider) Decided() Outcome { return d.outcome }

// InvariantErr reports a violated internal invariant (nil in correct runs);
// the test suite asserts it stays nil under every adversary.
func (d *decider) InvariantErr() error { return d.invalid }

func (d *decider) invariant(cond bool, format string, args ...any) {
	if !cond && d.invalid == nil {
		d.invalid = fmt.Errorf(format, args...)
	}
}

// decide records a local decision (first call wins) and broadcasts DECIDE.
func (d *decider) decide(v Value, round int) {
	if d.outcome.Decided {
		return
	}
	d.outcome = Outcome{Decided: true, Value: v, Round: round, Time: d.env.Now()}
	d.env.Note(trace.KindDecide, "DECIDE", DecideDetail(v, round, false))
	d.env.Broadcast(DecideMsg{Val: v, Round: round})
}

// onDecide handles a received DECIDE: relay once, adopt the value — and
// the round the decision was actually reached in, which the message
// carries (the receiver's local round may be far behind or ahead).
func (d *decider) onDecide(m DecideMsg) {
	if d.outcome.Decided {
		return
	}
	d.outcome = Outcome{Decided: true, Value: m.Val, Round: m.Round, Time: d.env.Now(), Relayed: true}
	d.env.Note(trace.KindDecide, "DECIDE", DecideDetail(m.Val, m.Round, true))
	d.env.Broadcast(DecideMsg{Val: m.Val, Round: m.Round})
}

// relayAgain re-broadcasts a decided outcome and reports whether there was
// one. Task T2 relays a decision once, and a decided process takes no
// further protocol steps, so the relay is re-armed where that once may not
// have been enough: on a peer's REJOIN (the rejoiner may have been down
// when the original DECIDE and its relays went out) and on the process's
// own recovery.
func (d *decider) relayAgain() bool {
	if !d.outcome.Decided {
		return false
	}
	d.env.Broadcast(DecideMsg{Val: d.outcome.Value, Round: d.outcome.Round})
	return true
}

// minValue returns the smallest of a non-empty value list (the Leaders'
// Coordination Phase adopts the minimum homonym estimate).
func minValue(vs []Value) Value {
	min := vs[0]
	for _, v := range vs[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// distinct returns the sorted distinct values of a list.
func distinct(vs []Value) []Value {
	seen := make(map[Value]bool, len(vs))
	var out []Value
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// recKind classifies a Phase-2 reception set per the paper's three cases.
type recKind int

const (
	recAllSameValue recKind = iota + 1 // rec = {v}, v ≠ ⊥ → decide v
	recValueAndBot                     // rec = {v, ⊥} → adopt v
	recAllBot                          // rec = {⊥} → skip
	recInvalid                         // anything else: broken invariant
)

// classifyRec implements lines 31–34 of Fig. 8 (and 49–53 of Fig. 9).
func classifyRec(rec []Value) (recKind, Value) {
	switch len(rec) {
	case 1:
		if rec[0] == Bottom {
			return recAllBot, Bottom
		}
		return recAllSameValue, rec[0]
	case 2:
		// distinct() sorts; Bottom ("\x00⊥") sorts first.
		if rec[0] == Bottom && rec[1] != Bottom {
			return recValueAndBot, rec[1]
		}
	}
	return recInvalid, Bottom
}
