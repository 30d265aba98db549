package sim

import "fmt"

// Model decides the fate of each message copy: its delivery latency, or
// loss. A Model sees only the send time and the copy's own random stream,
// which keeps link behaviour identical in distribution across all directed
// links, as in the paper's model.
type Model interface {
	// Delay returns the latency for one message copy sent at time t, or
	// ok=false if the copy is lost. Latencies must be >= 1. Every draw comes
	// from r, the copy's Fate, so the answer is a pure function of the
	// copy: the engine may ask again and gets the same one.
	Delay(t Time, r *Fate) (d Time, ok bool)
	// String describes the model for traces and experiment logs.
	String() string
}

// uniformModel is a Model that can say, per send time, whether a copy's
// whole fate is a delay lo + Int63n(span) (bounds): Async and PartialSync,
// the paper's HAS and HPS networks. The engine's fan-out draws such copies
// without the Model interface (uniformLaw); Delay is defined through bounds,
// so the two agree.
type uniformModel interface {
	bounds(t Time) (lo Time, span int64, only bool)
}

// Async is the HAS[∅] network: reliable asynchronous links. Every copy is
// delivered after a finite delay drawn uniformly from [MinDelay, MaxDelay].
// There is no bound the algorithms may rely on; the parameters only shape
// the adversary within fairness.
type Async struct {
	MinDelay Time // default 1
	MaxDelay Time // default 10
}

// Delay implements Model.
func (a Async) Delay(t Time, r *Fate) (Time, bool) {
	lo, span, _ := a.bounds(t)
	return lo + Time(r.Int63n(span)), true
}

// bounds is the delay law of a copy sent at t, lo + Int63n(span); only
// reports that the copy makes no other draw, which for Async always holds.
func (a Async) bounds(Time) (lo Time, span int64, only bool) {
	lo, hi := a.MinDelay, a.MaxDelay
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, int64(hi - lo + 1), true
}

func (a Async) String() string {
	lo, span, _ := a.bounds(0)
	return fmt.Sprintf("async[%d..%d]", lo, lo+Time(span)-1)
}

// PartialSync is the HPS[∅] network: eventually timely links. Copies sent
// at or after GST are delivered within Delta. Copies sent before GST are
// lost with probability PreLoss, and otherwise delayed up to PreMax (which
// may land after GST — "arbitrary but finite").
//
// PreLoss = 0 keeps the links reliable (the model permits, but does not
// require, pre-GST loss). That lossless configuration simultaneously
// satisfies HPS (for the Fig. 6 detector) and the HAS reliability the
// consensus layer assumes, which is exactly the setting of the paper's
// combined partial-synchrony result. Use PreLoss > 0 when exercising the
// detector's loss tolerance alone.
//
// GST and Delta are, of course, unknown to the algorithms; they exist only
// in the model.
type PartialSync struct {
	GST     Time
	Delta   Time    // default 5
	PreLoss float64 // 0 = reliable links
	PreMax  Time    // default 4*Delta
}

// Delay implements Model.
func (p PartialSync) Delay(t Time, r *Fate) (Time, bool) {
	lo, span, only := p.bounds(t)
	if !only && r.Float64() < p.PreLoss {
		return 0, false
	}
	return lo + Time(r.Int63n(span)), true
}

// bounds is the delay law of a copy sent at t, as for Async: within Delta
// from GST on, up to PreMax before it. Before GST a lossy network draws the
// copy's loss first, so there only holds just when PreLoss is 0.
func (p PartialSync) bounds(t Time) (lo Time, span int64, only bool) {
	delta := p.Delta
	if delta < 1 {
		delta = 5
	}
	if t >= p.GST {
		return 1, int64(delta), true
	}
	preMax := p.PreMax
	if preMax < 1 {
		preMax = 4 * delta
	}
	return 1, int64(preMax), p.PreLoss <= 0
}

func (p PartialSync) String() string {
	return fmt.Sprintf("partial-sync[GST=%d δ=%d]", p.GST, p.Delta)
}

// Timely is a fully synchronous-latency network for the event engine: every
// copy is delivered after exactly Delta units. Lock-step executions (HSS)
// run on it (LockstepConfig); it is also a best-case network and serves
// tests that need exact delivery times.
type Timely struct {
	Delta Time // default 1
}

// Delay implements Model.
func (s Timely) Delay(_ Time, _ *Fate) (Time, bool) {
	if s.Delta < 1 {
		return 1, true
	}
	return s.Delta, true
}

func (s Timely) String() string { return fmt.Sprintf("timely[δ=%d]", max(s.Delta, 1)) }

var (
	_ Model = Async{}
	_ Model = PartialSync{}
	_ Model = Timely{}

	_ uniformModel = Async{}
	_ uniformModel = PartialSync{}
)
