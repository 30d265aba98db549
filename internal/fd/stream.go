package fd

// Sampling and streaming verification. There is one sampler: a
// StreamProbe reads a detector output at the instants it can change,
// compares it with the last value it accepted (Feed — the only place a
// sample is compared and stored) and, on a change, replaces that value and
// runs its observers. Its own state is each process's latest output and
// the time it last changed — O(1) per process, independent of the event
// count, which is what lets n = 50,000 runs be verified at all. Anything
// that needs more than the final view subscribes with Observe: Probe
// (probe.go) is a StreamProbe with a collector that appends every accepted
// sample to a per-process history, RecordChanges writes the change stream
// into a trace. Checkers that only
// need final outputs (◇HP̄, HΩ, 𝔈, Ω, AΩ, and the stabilization time)
// accept the FinalView interface, so the same checker code judges a bare
// StreamProbe, a history-keeping Probe and a trace replayer. The sampler
// is compared with an independent reference (the pre-merge NewProbe and
// NewSyncProbe bodies, kept in stream_test.go) on live runs.

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
// output of process p (ok=false while the process has no output or has
// crashed); eq decides whether two outputs are equal. Register observers
// before the run starts.
//
// Sampling exploits the engine's change contract: a process's output can
// change only during its own events or when virtual time advances (oracle
// detectors are functions of the clock). The probe therefore samples the
// event's process after every event, and all processes whenever the clock
// moved — which observes exactly the same history as sampling everyone
// after every event, at a fraction of the cost.
func NewStreamProbe[T any](eng *sim.Engine, n int, get func(p sim.PID) (T, bool), eq func(a, b T) bool) *StreamProbe[T] {
	sp := NewStaticStreamProbe(n, eq)
	lastNow := sim.Time(-1)
	eng.AfterEvent(func(now sim.Time, p sim.PID) {
		if p >= 0 && now == lastNow {
			if int(p) < n {
				sp.sample(now, p, get)
			}
			return
		}
		lastNow = now
		for q := 0; q < n; q++ {
			sp.sample(now, sim.PID(q), get)
		}
	})
	return sp
}

// NewStaticStreamProbe builds a detached probe fed by hand through Feed:
// for checker tests, offline replay (driving monitors from a decoded
// trace) and samplers with their own clock (NewSyncProbe).
func NewStaticStreamProbe[T any](n int, eq func(a, b T) bool) *StreamProbe[T] {
	return &StreamProbe[T]{
		last:       make([]T, n),
		seen:       make([]bool, n),
		lastChange: make([]sim.Time, n),
		eq:         eq,
	}
}

func (sp *StreamProbe[T]) sample(now sim.Time, p sim.PID, get func(p sim.PID) (T, bool)) {
	v, ok := get(p)
	if !ok {
		return
	}
	sp.Feed(now, p, v)
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
