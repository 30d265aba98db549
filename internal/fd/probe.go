package fd

import (
	"repro/internal/sim"
)

// Sample is one timed observation of a detector output at one process.
type Sample[T any] struct {
	Time  sim.Time
	Value T
}

// Probe is a StreamProbe that also keeps, per process, the history of the
// detector output: the exact sequence of distinct outputs with their
// first-occurrence times. The history is a collector registered with
// Observe, so what is stored is what StreamProbe.Feed accepted — there is
// one sampler and one "equal to the last sample?" test. Checkers that
// quantify over whole executions (HΣ monotonicity and safety, Σ safety)
// need it; checkers that read final outputs only take a FinalView and
// run on the bare StreamProbe, whose state does not grow with the run.
type Probe[T any] struct {
	*StreamProbe[T]
	histories [][]Sample[T]
}

// collect wraps sp in a Probe whose histories receive every sample sp
// accepts from now on.
func collect[T any](sp *StreamProbe[T]) *Probe[T] {
	pr := &Probe[T]{StreamProbe: sp, histories: make([][]Sample[T], sp.N())}
	sp.Observe(func(p sim.PID, s Sample[T]) {
		pr.histories[p] = append(pr.histories[p], s)
	})
	return pr
}

// NewProbe attaches a history-keeping probe to the engine: NewStreamProbe
// (see there for get, eq and the sampling instants) plus the collector.
func NewProbe[T any](eng *sim.Engine, n int, get func(p sim.PID) (T, bool), eq func(a, b T) bool) *Probe[T] {
	return collect(NewStreamProbe(eng, n, get, eq))
}

// History returns process p's sample history (distinct consecutive values
// with their first-occurrence times).
func (pr *Probe[T]) History(p sim.PID) []Sample[T] { return pr.histories[p] }
