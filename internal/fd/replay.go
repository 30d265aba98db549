package fd

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Detector outputs cross the trace boundary as KindFDChange events: the
// live run records every accepted StreamProbe sample (RecordChanges), and
// a replay parses the events back into a static probe with identical final
// views and last-change times (ChangeReplayer). The render/parse pairs
// below are exact inverses on every value a detector can output — process
// identifiers ("g003", "p017") never contain '*' or '|', which the
// encodings exploit. MsgTag names the probed output, so one trace can
// carry several view streams side by side.

// FDChange tags for the probed detector outputs.
const (
	TagTrusted = "TRUSTED" // *multiset.Multiset[ident.ID] (◇HP̄, Σ)
	TagLeader  = "LEADER"  // LeaderInfo (HΩ)
)

// RenderView encodes a trusted/quorum multiset as its canonical Key
// ("g001*2|g002*1"; empty multiset is "").
func RenderView(m *multiset.Multiset[ident.ID]) string { return m.Key() }

// ParseView inverts RenderView.
func ParseView(s string) (*multiset.Multiset[ident.ID], error) {
	m := multiset.New[ident.ID]()
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, "|") {
		i := strings.LastIndex(part, "*")
		if i < 0 {
			return nil, fmt.Errorf("fd: view element %q has no multiplicity", part)
		}
		c, err := strconv.Atoi(part[i+1:])
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("fd: view element %q has bad multiplicity", part)
		}
		m.AddN(ident.ID(part[:i]), c)
	}
	return m, nil
}

// RenderLeader encodes an HΩ output as "id*multiplicity".
func RenderLeader(l LeaderInfo) string {
	return string(l.ID) + "*" + strconv.Itoa(l.Multiplicity)
}

// ParseLeader inverts RenderLeader.
func ParseLeader(s string) (LeaderInfo, error) {
	i := strings.LastIndex(s, "*")
	if i < 0 {
		return LeaderInfo{}, fmt.Errorf("fd: leader %q has no multiplicity", s)
	}
	c, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return LeaderInfo{}, fmt.Errorf("fd: leader %q has bad multiplicity", s)
	}
	return LeaderInfo{ID: ident.ID(s[:i]), Multiplicity: c}, nil
}

// RecordChanges subscribes rec to the probe: every accepted sample becomes
// a KindFDChange event carrying tag and render(value), in sample order.
// Register it only on retaining recorders — rendering is wasted work on a
// stats-only run, where KindFDChange events are dropped anyway.
func RecordChanges[T any](rec *trace.Recorder, sp *StreamProbe[T], tag string, render func(T) string) {
	sp.Observe(func(p sim.PID, s Sample[T]) {
		rec.Record(trace.Event{Time: int64(s.Time), Kind: trace.KindFDChange, PID: int(p), MsgTag: tag, Detail: render(s.Value)})
	})
}

// ChangeReplayer rebuilds one detector-output stream from a trace: feed it
// every event (Observe ignores everything but KindFDChange events carrying
// its tag) and Probe exposes the reconstructed views to the same checkers
// the live run used. Because RecordChanges records exactly the samples the
// live probe accepted, the replayed probe's final views and last-change
// times are identical to the live ones.
type ChangeReplayer[T any] struct {
	probe *StreamProbe[T]
	tag   string
	parse func(string) (T, error)
	err   error
}

// NewChangeReplayer replays tag-carrying FDChange events for processes
// 0..n-1; eq and parse must match the live probe's eq and renderer.
func NewChangeReplayer[T any](n int, eq func(a, b T) bool, tag string, parse func(string) (T, error)) *ChangeReplayer[T] {
	return &ChangeReplayer[T]{probe: NewStaticStreamProbe[T](n, eq), tag: tag, parse: parse}
}

// Observe consumes one trace event.
func (r *ChangeReplayer[T]) Observe(e trace.Event) {
	if e.Kind != trace.KindFDChange || e.MsgTag != r.tag || r.err != nil {
		return
	}
	if e.PID < 0 || e.PID >= r.probe.N() {
		r.err = fmt.Errorf("fd: %s change for process %d outside [0,%d)", r.tag, e.PID, r.probe.N())
		return
	}
	v, err := r.parse(e.Detail)
	if err != nil {
		r.err = err
		return
	}
	r.probe.Feed(sim.Time(e.Time), sim.PID(e.PID), v)
}

// Probe returns the reconstructed probe (attach monitors before feeding).
func (r *ChangeReplayer[T]) Probe() *StreamProbe[T] { return r.probe }

// Err reports the first malformed change event (nil on well-formed traces).
func (r *ChangeReplayer[T]) Err() error { return r.err }

// The ohp detector pair (◇HP̄ trusted views + HΩ leaders) is what the E6
// and churn drivers probe; these constructors pin the (eq, tag, codec)
// triples, and the live probes compare with the same MultisetEqual and
// LeaderEqual, so live and replay cannot drift apart.

// NewTrustedReplayer replays TagTrusted multiset views.
func NewTrustedReplayer(n int) *ChangeReplayer[*multiset.Multiset[ident.ID]] {
	return NewChangeReplayer(n, MultisetEqual, TagTrusted, ParseView)
}

// NewLeaderReplayer replays TagLeader HΩ outputs.
func NewLeaderReplayer(n int) *ChangeReplayer[LeaderInfo] {
	return NewChangeReplayer(n, LeaderEqual, TagLeader, ParseLeader)
}
