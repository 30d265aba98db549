// Package core implements the paper's two consensus algorithms for
// homonymous asynchronous systems (§5):
//
//   - Fig8: consensus in HAS[t < n/2, HΩ] — the system size n is known, a
//     majority of processes is correct, and the only failure detector is a
//     detector of class HΩ (Theorem 7).
//   - Fig9: consensus in HAS[HΩ, HΣ] — any number of crashes, membership
//     and n unknown, using detectors of classes HΩ and HΣ (Theorem 8).
//     Fig9 also provides the anonymous baseline variant the paper derives
//     it from (AΩ leadership, no Leaders' Coordination Phase).
//
// Both algorithms proceed in rounds of four phases. The Leaders'
// Coordination Phase is the paper's key addition for homonymy: HΩ elects a
// set of homonymous leaders (all correct holders of one identifier), and
// before proposing they exchange COORD messages until each has heard all
// h_multiplicity co-leaders and adopted the minimum estimate — from then on
// the leader group speaks with one voice and the anonymous-system protocols
// the algorithms descend from ([4], [3]/[6]) apply unchanged.
//
// The implementations are event-driven state machines for the simulator:
// every paper "wait until" is a guard re-evaluated whenever a message
// arrives, a timer fires, or a co-located failure-detector module changes
// output (sim.Poller). Each handler ends in step, which runs the guards to
// a fixpoint, stale heartbeats of a pre-outage epoch included; a sim.Node
// relies on that and does not poll the module again after its own message
// or timer unless a Poller below it ran in between. Guard evaluation at a
// fixpoint writes nothing, and its answer depends only on the process's
// own state and the detector outputs the current phase reads. So step
// memoizes it: a step that fires nothing leaves the process quiet with a
// small view of those outputs (HΩ's leader or AΩ's flag in the
// Coordination Phase and Phase 0; the identity of h_labels and h_quora in
// Fig. 9's Phases 1–2; nothing in Fig. 8's), and until a handler writes
// state (a message, a recovery) a heartbeat or poll whose view is
// unchanged returns without evaluating any guard.
//
// The paper presents Figure 9 as Figure 8 with Phases 1–2 swapped, and the
// code is laid out the same way: one round skeleton, two quorum rules. The
// unexported skeleton (round.go), embedded by Fig8 and Fig9, owns the round
// state, propose, the Leaders' Coordination Phase, Phase 0, the Phase 2
// reception cases, Task T2, the heartbeat and the whole rejoin protocol;
// fig8.go and fig9.go hold what differs — how Phases 1–2 collect a quorum
// (n−t or α counted copies; HΣ quora matched in sub-rounds) — behind the
// small quorumRule interface the skeleton calls. The five constructors set
// the skeleton's three variant switches: the HΩ or AΩ leader source and
// whether rounds start at Phase 0.
//
// Fig. 9's Phase 1/2 guard — some (x, mset) ∈ h_quora matched by one
// sub-round's messages — fails on almost every such evaluation, so it is
// answered from an index kept at message arrival instead of a rescan of
// the buffer. Invariant: avail(sr, x) is the multiset of senders of this
// round's buffered messages of sub-round sr whose label list contains x;
// it only grows, and the guard holds iff mset ⊆ avail(sr, x) for some
// pair and sub-round. Buffered messages share the sender's label slice:
// a sender replaces its current_labels wholesale, never in place, and
// fd.HSigma.Labels returns an immutable slice that the detector replaces,
// never writes to, when its output changes. Under every
// constructor, reception buffers exist for the current round and later
// ones only; a round's buffers go when the process leaves it.
//
// Beyond the paper's crash-stop model, the skeleton implements
// sim.Recoverer with a rejoin protocol for crash-recovery churn: a
// recovered process re-arms its timer chain under a fresh epoch,
// broadcasts (REJOIN, r), and either adopts an already-taken decision via
// the re-armed DECIDE relay or fast-forwards into the live round from the
// peers' (REJOIN_ACK, round, est) answers — joining only rounds it never
// voted in, so the quorum-intersection safety arguments are unchanged. The
// argument is stated once, on skeleton.maybeResync; its one Fig. 9-specific
// sentence is that "one vote per round" reads "one per sub-round" there,
// which Fig9.followAck's sub-round catch-up preserves.
package core
