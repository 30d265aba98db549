package oracle

import (
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// World is the shared ground truth oracles consult. Stabilize is the
// virtual time from which outputs are stable and truthful; before it,
// behaviour depends on the oracle's adversary mode.
//
// The ground truth never changes during a run, so the World precomputes
// every constant output (quorum pairs, label sets, I(Π)) once: oracle
// queries on the hot sampling path are allocation-free. All returned
// slices and multisets are shared and must be treated as read-only.
type World struct {
	Truth     *fd.GroundTruth
	Stabilize sim.Time

	allIDs       *multiset.Multiset[ident.ID]
	quoraAll     []fd.QuorumPair
	quoraStable  []fd.QuorumPair
	labelsAll    []fd.Label
	labelsStable []fd.Label
	asigmaAll    []fd.APair
	asigmaStable []fd.APair
}

// NewWorld builds a World.
func NewWorld(truth *fd.GroundTruth, stabilize sim.Time) *World {
	w := &World{Truth: truth, Stabilize: stabilize}
	w.allIDs = truth.IDs.I()
	w.quoraAll = []fd.QuorumPair{{Label: "all", M: w.allIDs}}
	w.quoraStable = append(w.quoraAll[:1:1], fd.QuorumPair{Label: "corr", M: truth.EventuallyUpIDs()})
	w.labelsAll = []fd.Label{"all"}
	w.labelsStable = append(w.labelsAll[:1:1], "corr")
	w.asigmaAll = []fd.APair{{Label: "all", Y: truth.IDs.N()}}
	w.asigmaStable = append(w.asigmaAll[:1:1], fd.APair{Label: "corr", Y: len(truth.EventuallyUp())})
	return w
}

func (w *World) stable(now sim.Time) bool { return now >= w.Stabilize }

// clock is the sim.Process every oracle embeds: the World it consults
// and the environment of the process it is attached to, its only window
// on virtual time and its own PID.
type clock struct {
	w   *World
	env sim.Environment
}

// Init implements sim.Process.
func (c *clock) Init(env sim.Environment) { c.env = env }

// OnMessage implements sim.Process; oracles use no messages.
func (c *clock) OnMessage(any) {}

// OnTimer implements sim.Process; oracles use no timers.
func (c *clock) OnTimer(int) {}

// Adversary selects the pre-stabilization behaviour of leader oracles.
type Adversary int

const (
	// AdversaryNone outputs the stable value from the start.
	AdversaryNone Adversary = iota
	// AdversaryRotate cycles the elected identifier through all
	// identifiers in the system (with wrong multiplicities), changing
	// every RotatePeriod time units — the classic flapping-leader
	// adversary consensus must tolerate.
	AdversaryRotate
	// AdversarySplit makes different processes see different leaders
	// (each process sees a leader offset by its own index), violating
	// agreement until stabilization.
	AdversarySplit
)

// RotatePeriod is the flapping period of AdversaryRotate/AdversarySplit.
const RotatePeriod = 7

// HOmega is an HΩ-class oracle for one process.
type HOmega struct {
	clock
	mode Adversary
}

var _ fd.HOmega = (*HOmega)(nil)

// NewHOmega builds the oracle for one process; attach it to the process's
// node so it can observe virtual time.
func NewHOmega(w *World, mode Adversary) *HOmega {
	return &HOmega{clock: clock{w: w}, mode: mode}
}

// Leader implements fd.HOmega.
func (o *HOmega) Leader() (fd.LeaderInfo, bool) {
	now := o.env.Now()
	if o.w.stable(now) || o.mode == AdversaryNone {
		return o.w.Truth.ExpectedLeader()
	}
	ids := o.w.Truth.IDs
	k := int(now / RotatePeriod)
	if o.mode == AdversarySplit {
		k += int(o.env.PID())
	}
	id := ids[k%ids.N()]
	// Multiplicity is deliberately unreliable pre-stabilization: the class
	// constrains only the eventual output.
	return fd.LeaderInfo{ID: id, Multiplicity: 1 + k%2}, true
}

// DiamondHPbar is a ◇HP̄-class oracle: it trusts I(alive(now)) before
// stabilization (a natural over-approximation) and I(Correct) afterwards.
type DiamondHPbar struct {
	clock
	pre   *multiset.Multiset[ident.ID] // memoized pre-stabilization output
	preAt sim.Time
}

var _ fd.DiamondHPbar = (*DiamondHPbar)(nil)

// NewDiamondHPbar builds the oracle.
func NewDiamondHPbar(w *World) *DiamondHPbar { return &DiamondHPbar{clock: clock{w: w}} }

// Trusted implements fd.DiamondHPbar. The returned multiset is a shared
// snapshot and must not be mutated; the pre-stabilization value is memoized
// per instant, so repeated samples at one virtual time are allocation-free.
func (o *DiamondHPbar) Trusted() *multiset.Multiset[ident.ID] {
	now := o.env.Now()
	if o.w.stable(now) {
		return o.w.Truth.EventuallyUpIDs()
	}
	if o.pre == nil || o.preAt != now {
		m := multiset.New[ident.ID]()
		for _, p := range o.w.Truth.AliveAt(now) {
			m.Add(o.w.Truth.IDs[p])
		}
		o.pre, o.preAt = m, now
	}
	return o.pre
}

// AP is an AP-class oracle: the current number of alive processes (always
// a safe upper bound that converges to |Correct| once all crashes fired).
type AP struct {
	clock
	// Slack inflates pre-stabilization outputs, exercising consumers that
	// must tolerate loose upper bounds.
	Slack int
}

var _ fd.AP = (*AP)(nil)

// NewAP builds the oracle.
func NewAP(w *World, slack int) *AP { return &AP{clock: clock{w: w}, Slack: slack} }

// AliveCount implements fd.AP.
func (o *AP) AliveCount() int {
	now := o.env.Now()
	alive := o.w.Truth.AliveCountAt(now)
	if !o.w.stable(now) {
		return alive + o.Slack
	}
	return alive
}

// Sigma is a Σ-class oracle for unique-identifier systems: before
// stabilization it trusts I(Π) (safe: all quorums intersect), afterwards
// I(Correct). With a majority of correct processes one could emit majority
// quorums; the oracle keeps the simplest class-valid behaviour.
type Sigma struct {
	clock
}

var _ fd.Sigma = (*Sigma)(nil)

// NewSigma builds the oracle.
func NewSigma(w *World) *Sigma { return &Sigma{clock: clock{w: w}} }

// TrustedQuorum implements fd.Sigma. The returned multiset is shared and
// must not be mutated.
func (o *Sigma) TrustedQuorum() *multiset.Multiset[ident.ID] {
	if o.w.stable(o.env.Now()) {
		return o.w.Truth.EventuallyUpIDs()
	}
	return o.w.allIDs
}

// ASigma is an AΣ-class oracle. It emits ("all", n) always and, once
// stable, additionally ("corr", |Correct|). Both pairs are class-safe:
// sub-quora of size n and |Correct| over their member sets always
// intersect (the correct set is non-empty).
type ASigma struct {
	clock
}

var _ fd.ASigma = (*ASigma)(nil)

// NewASigma builds the oracle.
func NewASigma(w *World) *ASigma { return &ASigma{clock: clock{w: w}} }

// ASigma implements fd.ASigma. The returned slice is shared and must not
// be mutated.
func (o *ASigma) ASigma() []fd.APair {
	if o.w.stable(o.env.Now()) {
		return o.w.asigmaStable
	}
	return o.w.asigmaAll
}

// HSigma is an HΣ-class oracle: label "all" ↦ I(Π) always, and once stable
// label "corr" ↦ I(Correct) with membership of all correct processes.
type HSigma struct {
	clock
}

var _ fd.HSigma = (*HSigma)(nil)

// NewHSigma builds the oracle.
func NewHSigma(w *World) *HSigma { return &HSigma{clock: clock{w: w}} }

// Quora implements fd.HSigma. The returned slice and its multisets are
// shared and must not be mutated.
func (o *HSigma) Quora() []fd.QuorumPair {
	if o.w.stable(o.env.Now()) {
		return o.w.quoraStable
	}
	return o.w.quoraAll
}

// Labels implements fd.HSigma. Every process participates in "all"; the
// correct ones (and crashed ones too — membership of S(x) may include
// faulty processes) participate in "corr" once stable.
func (o *HSigma) Labels() []fd.Label {
	if o.w.stable(o.env.Now()) && o.w.Truth.IsEventuallyUp(o.env.PID()) {
		return o.w.labelsStable
	}
	return o.w.labelsAll
}

// AOmega is an AΩ-class oracle: after stabilization exactly the lowest-
// indexed correct process holds the flag.
type AOmega struct {
	clock
	mode Adversary
}

var _ fd.AOmega = (*AOmega)(nil)

// NewAOmega builds the oracle.
func NewAOmega(w *World, mode Adversary) *AOmega { return &AOmega{clock: clock{w: w}, mode: mode} }

// IsLeader implements fd.AOmega.
func (o *AOmega) IsLeader() bool {
	now := o.env.Now()
	if !o.w.stable(now) {
		switch o.mode {
		case AdversaryRotate:
			return int(now/RotatePeriod)%o.w.Truth.IDs.N() == int(o.env.PID())
		case AdversarySplit:
			return true // everyone believes they lead
		}
	}
	up := o.w.Truth.EventuallyUp()
	return len(up) > 0 && up[0] == o.env.PID()
}
