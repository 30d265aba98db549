package sim

import (
	"fmt"
	"math"
)

// LinkModel is an optional extension of Model for networks whose behaviour
// differs per directed link. When the engine's Net implements it, broadcast
// fan-out draws each copy's fate from LinkDelay(from, to) instead of the
// link-symmetric Delay. The base Delay remains the model's "typical link"
// description (used by String and by consumers that cannot name links).
type LinkModel interface {
	Model
	// LinkDelay returns the latency of the copy sent at time t along the
	// directed link from→to, or ok=false if that copy is lost, drawing
	// from the copy's Fate r as Delay does.
	LinkDelay(t Time, from, to PID, r *Fate) (d Time, ok bool)
}

// Pareto is a heavy-tailed reliable network: delays follow a truncated
// Pareto distribution with scale (minimum) Scale and shape Alpha. Small
// Alpha means a heavier tail — for Alpha <= 1 the untruncated distribution
// has infinite mean. Cap truncates the tail so that every execution is
// eventually timely (delays are bounded by Cap), which keeps adaptive
// detectors convergent while still hammering them with rare, huge delays.
type Pareto struct {
	Scale Time    // minimum delay, default 1
	Alpha float64 // tail index, default 1.5
	Cap   Time    // max delay (tail truncation), default 200*Scale
}

func (p Pareto) params() (scale Time, alpha float64, cap Time) {
	scale = p.Scale
	if scale < 1 {
		scale = 1
	}
	alpha = p.Alpha
	if alpha <= 0 {
		alpha = 1.5
	}
	cap = p.Cap
	if cap < scale {
		cap = 200 * scale
	}
	return scale, alpha, cap
}

// Delay implements Model.
func (p Pareto) Delay(_ Time, r *Fate) (Time, bool) {
	scale, alpha, cap := p.params()
	// Inverse-CDF sampling: X = scale / U^(1/alpha), U uniform in (0,1].
	u := 1 - r.Float64() // (0, 1]
	d := Time(float64(scale) * math.Pow(u, -1/alpha))
	if d < scale {
		d = scale
	}
	if d > cap {
		d = cap
	}
	return d, true
}

func (p Pareto) String() string {
	scale, alpha, cap := p.params()
	return fmt.Sprintf("pareto[xm=%d α=%.2f cap=%d]", scale, alpha, cap)
}

// LogNormal is a heavy-tailed reliable network with log-normally
// distributed delays: ln(d) ~ Normal(ln(Median), Sigma²). Sigma controls
// the tail weight; Cap truncates it (see Pareto).
type LogNormal struct {
	Median Time    // median delay, default 3
	Sigma  float64 // shape (log-space std dev), default 1
	Cap    Time    // max delay, default 200*Median
}

func (l LogNormal) params() (median Time, sigma float64, cap Time) {
	median = l.Median
	if median < 1 {
		median = 3
	}
	sigma = l.Sigma
	if sigma <= 0 {
		sigma = 1
	}
	cap = l.Cap
	if cap < 1 {
		cap = 200 * median
	}
	return median, sigma, cap
}

// Delay implements Model.
func (l LogNormal) Delay(_ Time, r *Fate) (Time, bool) {
	median, sigma, cap := l.params()
	d := Time(math.Round(float64(median) * math.Exp(sigma*r.NormFloat64())))
	if d < 1 {
		d = 1
	}
	if d > cap {
		d = cap
	}
	return d, true
}

func (l LogNormal) String() string {
	median, sigma, cap := l.params()
	return fmt.Sprintf("lognormal[med=%d σ=%.2f cap=%d]", median, sigma, cap)
}

// Alternating is time-varying partial synchrony: the network cycles
// between good windows (delays within GoodDelta) and bad windows (delays
// up to BadMax, copies lost with probability BadLoss), each Period long,
// until CalmAfter — from then on every window is good, so the system is
// eventually timely with an effective GST of CalmAfter. CalmAfter = 0
// keeps the network oscillating forever (no convergence guarantee for
// eventually-timely detectors; use it for stress, not for class checks).
type Alternating struct {
	Period    Time    // window length, default 50
	GoodDelta Time    // good-window latency bound, default 3
	BadMax    Time    // bad-window max latency, default 10*GoodDelta
	BadLoss   float64 // bad-window loss probability
	CalmAfter Time    // time after which all windows are good
}

func (a Alternating) params() (period, good, bad Time) {
	period = a.Period
	if period < 1 {
		period = 50
	}
	good = a.GoodDelta
	if good < 1 {
		good = 3
	}
	bad = a.BadMax
	if bad < good {
		bad = 10 * good
	}
	return period, good, bad
}

// Delay implements Model.
func (a Alternating) Delay(t Time, r *Fate) (Time, bool) {
	period, good, bad := a.params()
	inBad := (t/period)%2 == 1
	if a.CalmAfter > 0 && t >= a.CalmAfter {
		inBad = false
	}
	if !inBad {
		return 1 + Time(r.Int63n(int64(good))), true
	}
	if a.BadLoss > 0 && r.Float64() < a.BadLoss {
		return 0, false
	}
	return 1 + Time(r.Int63n(int64(bad))), true
}

func (a Alternating) String() string {
	period, good, bad := a.params()
	return fmt.Sprintf("alternating[T=%d δ=%d bad=%d loss=%.2f calm=%d]", period, good, bad, a.BadLoss, a.CalmAfter)
}

// AsymmetricLinks wraps a base model with a deterministic per-directed-link
// latency skew: link (from, to) adds a fixed offset in [0, MaxSkew] derived
// from the link's endpoints, so the triangle inequality and symmetry of the
// base model both break — p may hear q long before q hears p. The skew is a
// pure function of (from, to), not of the run's randomness, so two runs
// with equal seeds remain identical.
type AsymmetricLinks struct {
	Base    Model // default Async{}
	MaxSkew Time  // default 10
}

func (a AsymmetricLinks) base() Model {
	if a.Base == nil {
		return Async{}
	}
	return a.Base
}

func (a AsymmetricLinks) maxSkew() Time {
	if a.MaxSkew < 1 {
		return 10
	}
	return a.MaxSkew
}

// Skew returns the fixed extra latency of the directed link from→to.
func (a AsymmetricLinks) Skew(from, to PID) Time {
	// splitmix-style integer hash of the link endpoints: cheap, stateless,
	// and identical across runs and platforms.
	x := uint64(from)*0x9E3779B97F4A7C15 + uint64(to)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return Time(x % uint64(a.maxSkew()+1))
}

// Delay implements Model (the typical link: base delay plus median skew).
func (a AsymmetricLinks) Delay(t Time, r *Fate) (Time, bool) {
	d, ok := a.base().Delay(t, r)
	if !ok {
		return 0, false
	}
	return d + a.maxSkew()/2, true
}

// LinkDelay implements LinkModel.
func (a AsymmetricLinks) LinkDelay(t Time, from, to PID, r *Fate) (Time, bool) {
	d, ok := a.base().Delay(t, r)
	if !ok {
		return 0, false
	}
	return d + a.Skew(from, to), true
}

func (a AsymmetricLinks) String() string {
	return fmt.Sprintf("asym[%s skew<=%d]", a.base(), a.maxSkew())
}

var (
	_ Model     = Pareto{}
	_ Model     = LogNormal{}
	_ Model     = Alternating{}
	_ LinkModel = AsymmetricLinks{}
)
