// Package spans is the traced run's recorder: probes open a root span
// around each call into a layer, wrappers the bench owns (a trace.Sink,
// a sweep item function) open child spans inside it, and self time is a
// span's duration minus the part of it its children cover. Spans stay in
// memory until the run ends.
package spans

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Parent is the index of the enclosing span
// in the recorder's list, -1 for a root. Workload names the end-to-end
// workload the span's layer metric is expected to move ("" for guards).
type Span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload,omitempty"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder collects spans. Start/End are safe for concurrent use: the
// sweep wrapper closes item spans from worker goroutines.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns a recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its index. parent is -1 for a root.
func (r *Recorder) Start(name string, parent int, workload string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Workload: workload, StartNS: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// End closes span i and returns its duration.
func (r *Recorder) End(i int) time.Duration {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].EndNS = now
	return r.spans[i].Duration()
}

// Add records an interval measured elsewhere, for example time accumulated
// across many short calls, as a child starting at its parent's start.
func (r *Recorder) Add(name string, parent int, d time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[parent].StartNS
	r.spans = append(r.spans, Span{Name: name, Parent: parent, Workload: r.spans[parent].Workload, StartNS: start, EndNS: start + int64(d)})
	return len(r.spans) - 1
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children. Overlapping children (items
// running on two workers at once) are merged first, so the covered part
// never exceeds the parent's duration.
func SelfTimes(all []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range all {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(all))
	for i, s := range all {
		out[i] = s.Duration() - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
	var total int64
	end := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, end), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

// RootTotal is the summed duration of the root spans.
func RootTotal(all []Span) time.Duration {
	var d time.Duration
	for _, s := range all {
		if s.Parent < 0 {
			d += s.Duration()
		}
	}
	return d
}

// LayerOutput is what the traced run (bench/layerprobe) hands back to the
// orchestrator: the per-layer metrics by name, the spans they came from,
// and one line per probe that failed.
type LayerOutput struct {
	Metrics   map[string]float64 `json:"metrics"`
	Spans     []Span             `json:"spans"`
	Attempted int                `json:"attempted"`
	Failed    []string           `json:"failed,omitempty"`
	WallS     float64            `json:"wall_s"`
}
