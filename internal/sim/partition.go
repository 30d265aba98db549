package sim

import (
	"fmt"
	"math/rand"
	"strings"
)

// Lossy promotes message loss to a first-class network model: every copy is
// lost independently with probability P, and surviving copies take their
// delay from the Base model. Before this model existed, loss was reachable
// only inside PartialSync's pre-GST window and Alternating's bad windows —
// which made "lossy but otherwise calm" scenarios unwritable and therefore
// unfuzzable. Loss draws ride the engine's keyed per-copy fate streams, so
// a copy's fate stays a pure function of (seed, broadcast, recipient): the
// send-time scan and any wave that recomputes it see the same outcome.
//
// P must be < 1 for liveness-checked runs: the detectors and consensus
// algorithms assume fair-lossy links at worst, and the scenario hunter's
// mutators keep P inside [0, MaxLossP] for exactly that reason.
type Lossy struct {
	Base Model   // default Async{}
	P    float64 // per-copy loss probability, clamped to [0, 1)
}

// MaxLossP is the highest loss probability the scenario layer admits for
// verified runs: above it, runs stop terminating for reasons no checker
// distinguishes from a real liveness bug.
const MaxLossP = 0.9

func (l Lossy) base() Model {
	if l.Base == nil {
		return Async{}
	}
	return l.Base
}

func (l Lossy) p() float64 {
	if l.P < 0 {
		return 0
	}
	if l.P >= 1 {
		return MaxLossP
	}
	return l.P
}

// Delay implements Model: the loss draw happens first, then the base delay,
// in one fate stream — the draw order is part of the byte-identity contract
// (LinkDelay must consume randomness in the same order).
func (l Lossy) Delay(t Time, r *rand.Rand) (Time, bool) {
	if p := l.p(); p > 0 && r.Float64() < p {
		return 0, false
	}
	return l.base().Delay(t, r)
}

// LinkDelay implements LinkModel, delegating to the base model's per-link
// behaviour when it has one.
func (l Lossy) LinkDelay(t Time, from, to PID, r *rand.Rand) (Time, bool) {
	if p := l.p(); p > 0 && r.Float64() < p {
		return 0, false
	}
	if lm, ok := l.base().(LinkModel); ok {
		return lm.LinkDelay(t, from, to, r)
	}
	return l.base().Delay(t, r)
}

func (l Lossy) String() string {
	return fmt.Sprintf("lossy[p=%.2f %s]", l.p(), l.base())
}

// PartitionWindow is one scheduled split-brain interval: during [From, To)
// the population is cut into {p : p < Cut} and {p : p >= Cut}, and every
// copy crossing the cut is lost. Cut is an index boundary rather than an
// arbitrary set so a window is three integers — trivially serializable,
// mutable by the scenario hunter, and (because Balanced identity
// assignments are contiguous) still able to isolate exactly a homonymy
// group, e.g. the leader group, by cutting at the group boundary.
type PartitionWindow struct {
	From Time `json:"from"`
	To   Time `json:"to"`
	Cut  PID  `json:"cut"`
}

// Active reports whether the window severs the directed link from→to at
// time t.
func (w PartitionWindow) Active(t Time, from, to PID) bool {
	return t >= w.From && t < w.To && (from < w.Cut) != (to < w.Cut)
}

// Partition promotes network partitions to a first-class model: a base
// model wrapped with scheduled split windows. While a window is active,
// copies crossing its cut are lost; intra-side copies and copies sent
// outside every window behave exactly like the base model. The windows are
// plain data — parseable (cliutil.ParsePartitions), fuzzable, and a pure
// function of the spec — so partition schedules compose with the engine's
// determinism the same way ChurnSpec schedules do.
//
// Healing is implicit: a copy *sent* during a window is lost, a copy sent
// after the window's To is delivered normally. (The model decides fates at
// send time, like every Model; a partition that swallowed in-flight copies
// would need engine cooperation and buy no extra scenario power, since the
// window edges are free parameters.)
type Partition struct {
	Base    Model
	Windows []PartitionWindow
}

func (p Partition) base() Model {
	if p.Base == nil {
		return Async{}
	}
	return p.Base
}

// severed reports whether any window cuts the link from→to at time t.
func (p Partition) severed(t Time, from, to PID) bool {
	for _, w := range p.Windows {
		if w.Active(t, from, to) {
			return true
		}
	}
	return false
}

// Delay implements Model (the typical link: the base model's behaviour —
// a partition is per-link by nature, so the link-blind view never severs).
func (p Partition) Delay(t Time, r *rand.Rand) (Time, bool) {
	return p.base().Delay(t, r)
}

// LinkDelay implements LinkModel: a severed copy is lost before any base
// draw, so the base model's randomness is consumed only for copies the
// partition lets through — the severed fate is a pure function of
// (t, from, to), the same whenever and however often it is evaluated.
func (p Partition) LinkDelay(t Time, from, to PID, r *rand.Rand) (Time, bool) {
	if p.severed(t, from, to) {
		return 0, false
	}
	if lm, ok := p.base().(LinkModel); ok {
		return lm.LinkDelay(t, from, to, r)
	}
	return p.base().Delay(t, r)
}

func (p Partition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "part[%s", p.base())
	for _, w := range p.Windows {
		fmt.Fprintf(&b, " %d-%d@%d", w.From, w.To, w.Cut)
	}
	b.WriteString("]")
	return b.String()
}

// LastWindowEnd returns the largest To over the windows (0 when empty):
// the instant the network is whole again, which horizon validation
// compares against exactly like a churn schedule's last event.
func LastWindowEnd(ws []PartitionWindow) Time {
	var last Time
	for _, w := range ws {
		if w.To > last {
			last = w.To
		}
	}
	return last
}

var (
	_ LinkModel = Lossy{}
	_ LinkModel = Partition{}
)
