package fd

// Sampling and streaming verification. There is one sampler: a
// StreamProbe reads a detector output at the instants it can change,
// compares it with the last value it accepted (Feed — the only place a
// sample is compared and stored) and, on a change, replaces that value and
// runs its observers. Those instants are after each event in which a
// process signalled a change when all its processes signal, and otherwise
// after every event and at every clock advance (NewStreamProbe). Its own
// state is each process's latest output and the time it last changed —
// O(1) per process, independent of the event count, which is what lets
// n = 50,000 runs be verified at all. Anything that needs more than the
// final view subscribes with Observe: Probe (probe.go) is a StreamProbe
// with a collector that appends every accepted sample to a per-process
// history, RecordChanges writes the change stream into a trace. Checkers
// that only need final outputs (◇HP̄, HΩ, 𝔈, Ω, AΩ, and the stabilization
// time) accept the FinalView interface, so the same checker code judges a
// bare StreamProbe, a history-keeping Probe and a trace replayer. The
// sampler is compared with an independent reference (the pre-merge
// NewProbe body, kept in stream_test.go) on live runs, signalling
// detectors included.

import "repro/internal/sim"

// FinalView is the read surface of a StreamProbe (and so of a Probe):
// everything a final-state checker needs. Last returns p's latest output (ok=false if p never output);
// LastChange the time that output last changed; N the process count.
type FinalView[T any] interface {
	Last(p sim.PID) (T, bool)
	LastChange(p sim.PID) sim.Time
	N() int
}

var (
	_ FinalView[int] = (*Probe[int])(nil)
	_ FinalView[int] = (*StreamProbe[int])(nil)
)

// StreamProbe samples a detector output and retains only the latest value
// per process. Observers registered with Observe see every change — the
// exact sequence of distinct outputs with their first-occurrence times —
// which is how histories, online monitors and traces consume an execution
// without the probe materializing it.
type StreamProbe[T any] struct {
	last       []T
	seen       []bool
	lastChange []sim.Time
	eq         func(a, b T) bool
	obs        []func(p sim.PID, s Sample[T])
}

// NewStreamProbe attaches a probe to the engine. get returns the current
// output of process p (ok=false while the process has no output); eq
// decides whether two outputs are equal. A crashed process has no output:
// the probe does not call get for it while the engine reports it down.
// Register observers before the run starts, and build the probe after
// its processes are added: it reads their declarations (Engine.Signals).
//
// Sampling exploits the engine's change contract: a process's output can
// change only during its own events or, for an oracle, when virtual time
// advances. Every process is sampled once at time 0, after Init. From then
// on:
//   - when every process below n signals (sim.Signaller), p is sampled
//     after each event in which it called Environment.Changed, and the
//     engine calls the probe after no other event (Engine.AfterSignal);
//   - otherwise the event's process is sampled after every event, and
//     every process whenever the clock moved (Engine.AfterEvent).
//
// Either way the probe observes exactly the history that sampling everyone
// after every event would (the reference in stream_test.go), at a fraction
// of the cost; a detector that signals is read once per change.
func NewStreamProbe[T any](eng *sim.Engine, n int, get func(p sim.PID) (T, bool), eq func(a, b T) bool) *StreamProbe[T] {
	sp := NewStaticStreamProbe(n, eq)
	signalling := true
	for q := sim.PID(0); int(q) < n && signalling; q++ {
		signalling = eng.Signals(q)
	}
	lastNow := sim.Time(-1)
	sampler := func(now sim.Time, p sim.PID) {
		if p >= 0 && (signalling || now == lastNow) {
			if int(p) < n {
				sp.sample(eng, now, p, get)
			}
			return
		}
		lastNow = now
		for q := 0; q < n; q++ {
			sp.sample(eng, now, sim.PID(q), get)
		}
	}
	if signalling {
		eng.AfterSignal(sampler)
	} else {
		eng.AfterEvent(sampler)
	}
	return sp
}

// NewStaticStreamProbe builds a detached probe fed by hand through Feed:
// for checker tests and offline replay (driving monitors from a decoded
// trace).
func NewStaticStreamProbe[T any](n int, eq func(a, b T) bool) *StreamProbe[T] {
	return &StreamProbe[T]{
		last:       make([]T, n),
		seen:       make([]bool, n),
		lastChange: make([]sim.Time, n),
		eq:         eq,
	}
}

func (sp *StreamProbe[T]) sample(eng *sim.Engine, now sim.Time, p sim.PID, get func(p sim.PID) (T, bool)) {
	if eng.Crashed(p) {
		return
	}
	if v, ok := get(p); ok {
		sp.Feed(now, p, v)
	}
}

// Feed records one observation: a no-op if p's output is unchanged,
// otherwise the latest sample is replaced and observers run. Live probes
// feed themselves from engine events; static probes are fed by the caller
// in sample order.
func (sp *StreamProbe[T]) Feed(now sim.Time, p sim.PID, v T) {
	if sp.seen[p] && sp.eq(sp.last[p], v) {
		return
	}
	sp.last[p] = v
	sp.seen[p] = true
	sp.lastChange[p] = now
	for _, f := range sp.obs {
		f(p, Sample[T]{Time: now, Value: v})
	}
}

// Observe registers an observer for every accepted sample: p's output
// changed to s.Value at s.Time. Observers run in
// registration order, synchronously, inside the engine's event loop.
func (sp *StreamProbe[T]) Observe(f func(p sim.PID, s Sample[T])) {
	sp.obs = append(sp.obs, f)
}

// Last implements FinalView.
func (sp *StreamProbe[T]) Last(p sim.PID) (T, bool) {
	if !sp.seen[p] {
		var zero T
		return zero, false
	}
	return sp.last[p], true
}

// LastChange implements FinalView.
func (sp *StreamProbe[T]) LastChange(p sim.PID) sim.Time { return sp.lastChange[p] }

// N implements FinalView.
func (sp *StreamProbe[T]) N() int { return len(sp.last) }
