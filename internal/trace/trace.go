package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind classifies an event.
type Kind int

// Event kinds. Broadcast counts one per broadcast invocation; Deliver/Drop
// count per (sender, receiver) copy, matching the paper's model where
// broadcast(m) sends one copy along every directed link.
const (
	KindBroadcast Kind = iota + 1
	KindDeliver
	KindDrop
	KindCrash
	KindTimer
	KindDecide
	KindFDChange
	KindNote
	// KindRecover marks a crashed process resuming (crash-recovery model).
	KindRecover
	// KindTimerDrop marks a timer that expired on a down process. It is the
	// timer analogue of KindDrop: without it, crash interleavings involving
	// timers were unreconstructable from traces.
	KindTimerDrop
)

var kindNames = map[Kind]string{
	KindBroadcast: "broadcast",
	KindDeliver:   "deliver",
	KindDrop:      "drop",
	KindCrash:     "crash",
	KindTimer:     "timer",
	KindDecide:    "decide",
	KindFDChange:  "fd-change",
	KindNote:      "note",
	KindRecover:   "recover",
	KindTimerDrop: "timer-drop",
}

// String returns the lowercase event-kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timed occurrence in an execution. PID is the internal
// process index the event concerns (the receiver for deliveries).
type Event struct {
	Time   int64
	Kind   Kind
	PID    int
	MsgTag string // message type tag, e.g. "POLLING", "PH1"
	Detail string
}

// String renders the event for logs. It is also the canonical text form
// used by WriteText and WriterSink, so a spilled trace file and a rendered
// in-memory trace are byte-identical.
func (e Event) String() string {
	if e.MsgTag == "" {
		return fmt.Sprintf("t=%d p%d %s %s", e.Time, e.PID, e.Kind, e.Detail)
	}
	return fmt.Sprintf("t=%d p%d %s %s %s", e.Time, e.PID, e.Kind, e.MsgTag, e.Detail)
}

// Stats aggregates execution costs.
type Stats struct {
	Broadcasts int
	Delivered  int
	Dropped    int
	Crashes    int
	Recoveries int
	Timers     int
	TimerDrops int
	Decisions  int
	ByTag      map[string]int // broadcasts per message tag
}

// DefaultBufSize is the staging-buffer capacity (events per batch) used
// when Recorder.BufSize is zero.
const DefaultBufSize = 4096

// Recorder accumulates events and statistics. The zero value is ready to
// use, records statistics only, and is safe for concurrent use (the
// goroutine runtime shares one across delivery goroutines). Statistics are
// kept in atomic counters, so stats-only recording never contends on a
// lock.
//
// Event retention (KeepEvents) runs through a fixed-size staging buffer of
// BufSize events. When the write position wraps (the buffer fills), the
// full batch is spilled in one step: to the attached Sink if SetSink was
// called, otherwise to an in-memory chunk list. Either way the recorder
// never re-copies previously recorded events the way a grow-forever
// append slice does, and with a Sink a trace of any length runs in
// constant memory.
//
// KeepEvents and BufSize must be set before the first Record call and not
// changed afterwards; concurrent Record calls read them without locking.
type Recorder struct {
	// KeepEvents controls whether events are retained (or spilled); when
	// false only statistics are kept.
	KeepEvents bool
	// BufSize is the staging-buffer capacity; 0 means DefaultBufSize.
	BufSize int

	broadcasts atomic.Int64
	delivered  atomic.Int64
	dropped    atomic.Int64
	crashes    atomic.Int64
	recoveries atomic.Int64
	timers     atomic.Int64
	timerDrops atomic.Int64
	decisions  atomic.Int64
	byTag      sync.Map // string -> *atomic.Int64

	mu       sync.Mutex
	buf      []Event   // staging buffer, cap = BufSize
	chunks   [][]Event // spilled batches (in-memory mode)
	sink     Sink      // spill target (streaming mode), nil = in-memory
	spilled  int       // events handed to the sink so far
	recorded int       // events retained so far (skew canary ordinal)
	err      error     // first sink error
}

// skewCanary, when set via the linker
// (-ldflags "-X repro/internal/trace.skewCanary=skew"), perturbs the
// detail of exactly one retained event (ordinal skewEventOrdinal). It
// exists so CI can plant a single-event determinism regression and
// require cmd/tracediff to localize it — the trace-layer analogue of
// internal/core's wedgeCanary. It must never be set in production builds.
var skewCanary string

// skewEventOrdinal is the retained-event ordinal the canary perturbs.
const skewEventOrdinal = 100

// NewRecorder returns a recorder that retains full event lists in memory.
func NewRecorder() *Recorder {
	return &Recorder{KeepEvents: true}
}

// NewSpillRecorder returns a recorder that streams full batches of
// bufSize events (0 = DefaultBufSize) to sink instead of retaining them.
// Call Flush after the run to push the final partial batch.
func NewSpillRecorder(sink Sink, bufSize int) *Recorder {
	return &Recorder{KeepEvents: true, BufSize: bufSize, sink: sink}
}

// SetSink attaches the spill target. It must be called before the first
// Record; attaching a sink after events were retained panics (the retained
// prefix would silently bypass the sink).
func (r *Recorder) SetSink(s Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) > 0 || len(r.chunks) > 0 {
		panic("trace: SetSink after events were recorded")
	}
	r.sink = s
}

// Retaining reports whether the recorder keeps (or spills) full events, as
// opposed to statistics only. The engine reads it once per run to skip
// tag/detail formatting entirely for stats-only recorders; a nil recorder
// is not retaining.
func (r *Recorder) Retaining() bool {
	return r != nil && r.KeepEvents
}

// counter is the one definition of which statistic an event kind counts
// toward; nil for the kinds that count toward none (fd-change, note,
// anything out of range). Record and RecordBatch both count through it.
func (r *Recorder) counter(k Kind) *atomic.Int64 {
	switch k {
	case KindBroadcast:
		return &r.broadcasts
	case KindDeliver:
		return &r.delivered
	case KindDrop:
		return &r.dropped
	case KindCrash:
		return &r.crashes
	case KindRecover:
		return &r.recoveries
	case KindTimer:
		return &r.timers
	case KindTimerDrop:
		return &r.timerDrops
	case KindDecide:
		return &r.decisions
	}
	return nil
}

// tagCounter is the per-tag broadcast counter, created on first use.
func (r *Recorder) tagCounter(tag string) *atomic.Int64 {
	c, ok := r.byTag.Load(tag)
	if !ok {
		c, _ = r.byTag.LoadOrStore(tag, new(atomic.Int64))
	}
	return c.(*atomic.Int64)
}

// Record adds an event.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if c := r.counter(e.Kind); c != nil {
		c.Add(1)
	}
	if e.Kind == KindBroadcast {
		r.tagCounter(e.MsgTag).Add(1)
	}
	if !r.KeepEvents {
		return
	}
	r.mu.Lock()
	if skewCanary != "" && r.recorded == skewEventOrdinal {
		e.Detail += " [" + skewCanary + "]"
	}
	r.recorded++
	if r.buf == nil {
		size := r.BufSize
		if size <= 0 {
			size = DefaultBufSize
		}
		r.buf = make([]Event, 0, size)
	}
	r.buf = append(r.buf, e)
	if len(r.buf) == cap(r.buf) {
		r.spillLocked()
	}
	r.mu.Unlock()
}

// Count adds n events of kind k to the statistics and retains nothing: it
// is how a producer that tallies a run of events in plain ints hands them
// to a stats-only recorder, with one atomic add instead of n. The engine's
// delivery waves do; Delivered and Dropped are therefore exact whenever
// Run/RunUntil has returned, and may lag by the wave in progress when read
// from inside an AfterEvent hook. Broadcasts, which are also counted per
// tag, go through Record.
func (r *Recorder) Count(k Kind, n int) {
	if r == nil || n == 0 {
		return
	}
	if c := r.counter(k); c != nil {
		c.Add(int64(n))
	}
}

// RecordBatch adds the events of batch in order, to the same effect as
// calling Record on each. On a stats-only recorder it counts the batch
// first and touches each shared counter once per batch instead of once
// per event — what a replay, which pulls events in batches, would
// otherwise spend on 8 M atomic adds. It keeps no reference to batch.
func (r *Recorder) RecordBatch(batch []Event) {
	if r == nil {
		return
	}
	if r.KeepEvents {
		for _, e := range batch {
			r.Record(e)
		}
		return
	}
	var counts [KindTimerDrop + 1]int
	for i := range batch {
		e := &batch[i]
		if uint(e.Kind) < uint(len(counts)) {
			counts[e.Kind]++
		}
		if e.Kind == KindBroadcast {
			r.tagCounter(e.MsgTag).Add(1)
		}
	}
	for k, n := range counts {
		r.Count(Kind(k), n)
	}
}

// spillLocked hands the full staging buffer off as one batch and resets the
// write position. A sink only borrows the batch for the call, so in
// streaming mode the one staging buffer is reused for the whole run —
// cleared first, so it does not pin the spilled events' strings. In
// in-memory mode the batch itself joins the chunk list and the recorder
// allocates a fresh buffer rather than copying. Either way a batch is
// written exactly once.
func (r *Recorder) spillLocked() {
	batch := r.buf
	if r.sink != nil {
		r.spilled += len(batch)
		if err := r.sink.Spill(batch); err != nil && r.err == nil {
			r.err = err
		}
		clear(batch)
		r.buf = batch[:0]
		return
	}
	r.chunks = append(r.chunks, batch)
	r.buf = make([]Event, 0, cap(batch))
}

// Flush pushes the staging buffer's partial batch to the sink (a no-op in
// in-memory mode, where Events reads the buffer in place) and flushes the
// sink itself if it implements Flusher. It returns the first error the
// sink ever reported. Call it after a run before reading the sink's
// output.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink != nil && len(r.buf) > 0 {
		r.spillLocked()
	}
	if f, ok := r.sink.(Flusher); ok {
		if err := f.Flush(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// Err returns the first error reported by the sink, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stats returns a snapshot of the aggregate statistics.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	s := Stats{
		Broadcasts: int(r.broadcasts.Load()),
		Delivered:  int(r.delivered.Load()),
		Dropped:    int(r.dropped.Load()),
		Crashes:    int(r.crashes.Load()),
		Recoveries: int(r.recoveries.Load()),
		Timers:     int(r.timers.Load()),
		TimerDrops: int(r.timerDrops.Load()),
		Decisions:  int(r.decisions.Load()),
		ByTag:      make(map[string]int),
	}
	r.byTag.Range(func(k, v any) bool {
		s.ByTag[k.(string)] = int(v.(*atomic.Int64).Load())
		return true
	})
	return s
}

// Events returns a copy of the retained events in recording order: all
// spilled in-memory chunks followed by the staging buffer. It returns nil
// for stats-only recorders and in streaming mode (with a Sink attached the
// events live wherever the sink put them).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.KeepEvents || r.sink != nil {
		return nil
	}
	total := len(r.buf)
	for _, c := range r.chunks {
		total += len(c)
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return append(out, r.buf...)
}

// Filter returns the recorded events matching the given kind.
func (r *Recorder) Filter(k Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
