package trace

import (
	"fmt"
	"maps"
	"math"

	"repro/internal/sweep"
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

// Add adds o's counts into s: the Stats of two runs of events recorded
// one after the other.
func (s *Stats) Add(o Stats) {
	s.Broadcasts += o.Broadcasts
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Crashes += o.Crashes
	s.Recoveries += o.Recoveries
	s.Timers += o.Timers
	s.TimerDrops += o.TimerDrops
	s.Decisions += o.Decisions
	if len(o.ByTag) > 0 && s.ByTag == nil {
		s.ByTag = make(map[string]int, len(o.ByTag))
	}
	for tag, c := range o.ByTag {
		s.ByTag[tag] += c
	}
}

// DefaultBufSize is the staging-buffer capacity (events per batch) used
// when Recorder.BufSize is zero. A streaming recorder stages up to
// spillDepth+1 batches, so at the default it holds 8,192 events.
const DefaultBufSize = 2048

// spillDepth is how many full batches a streaming recorder may have handed
// to its background spill and not seen spilled yet. With one, any late
// wake-up of the spill goroutine stalls the engine at the next hand-off;
// with a few, the engine runs on and the spill catches up. Deeper rings of
// smaller batches at the same staged total measured no faster.
const spillDepth = 3

// Recorder accumulates events and statistics. The zero value is ready to
// use and records statistics only; a nil *Recorder is safe to record into
// and reports empty results.
//
// A Recorder has one writer: it belongs to one goroutine at a time — the
// one that records into it while the run lasts, then whoever reads it
// afterwards — and takes no lock. A simulator run records from its
// engine's goroutine; the live runtime (internal/hruntime), whose
// processes run on goroutines of their own, records under its cluster
// lock. Statistics are plain counters, so stats-only recording costs an
// increment per event.
//
// Event retention (KeepEvents) stages each event as a 24-byte record with
// no pointers (stage.go): its strings become refs into a table the
// recorder owns. Records go into a fixed-size staging buffer of BufSize;
// when it fills, the full batch is spilled in one step: to the Sink
// NewSpillRecorder attached, otherwise to an in-memory chunk list that
// Events expands on demand. Either way the recorder never re-copies
// previously recorded events the way a grow-forever append slice does,
// and with a Sink a trace of any length runs in memory bounded by the
// run's distinct strings: a ring of spillDepth+1 staging buffers, one
// filling while a background spill (a sweep.Stage) drains up to
// spillDepth full ones into the sink, oldest first. A *BinarySink encodes
// the records directly; any other sink gets them expanded into one reused
// []Event. That goroutine touches only the slots handed to it, the
// expansion buffer and the sink error, and every method that reads the
// error waits for it first.
//
// KeepEvents and BufSize must be set before the first Record call and not
// changed afterwards.
type Recorder struct {
	// KeepEvents controls whether events are retained (or spilled); when
	// false only statistics are kept.
	KeepEvents bool
	// BufSize is the staging-buffer capacity; 0 means DefaultBufSize.
	BufSize int

	counts [KindTimerDrop + 1]int // events recorded per kind; see Stats
	byTag  map[string]int         // broadcasts per message tag

	buf     []staged   // staging buffer, len = BufSize once allocated
	n       int        // records in buf
	lean    int        // RecordDeliver's bound on n: len(buf)-1, 0 with the skew canary
	tab     strTable   // the strings buf and every spilled batch refer to
	chunks  [][]staged // spilled batches (in-memory mode)
	sink    Sink       // spill target (streaming mode), nil = in-memory
	spilled int        // events spilled before buf (skew canary ordinal)

	// Streaming mode: the staging ring. buf fills ring[cur].recs; every
	// other slot holds a batch handed to spill, or a spilled one. A slot
	// belongs to the background spill from its hand-off until spillDepth
	// more hand-offs have returned, and expanded and err belong to it
	// until spill.Wait. The pads keep what the engine writes per event
	// (n, counts) and what the spill reads per batch off each other's
	// cache lines.
	_        [64]byte
	spill    *sweep.Stage
	ring     [spillDepth + 1]slot
	spillers [spillDepth + 1]func() // spillers[i] spills ring[i]; bound once
	cur      int
	expanded []Event // a foreign sink's batch, expanded from a slot
	err      error   // first sink error
}

// slot is one staging buffer of a streaming recorder's ring and the
// string table as of its hand-off. It is padded to two cache lines.
type slot struct {
	recs []staged
	tab  tableView
	_    [128 - 24 - 56]byte
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
//
//detlint:ignore unreached pinned by bench/layerprobe, a separate module detlint does not load
func NewRecorder() *Recorder {
	return &Recorder{KeepEvents: true}
}

// NewSpillRecorder returns a recorder that streams full batches of
// bufSize events (0 = DefaultBufSize) to sink instead of retaining them.
// Call Flush after the run to push the final partial batch.
func NewSpillRecorder(sink Sink, bufSize int) *Recorder {
	return &Recorder{KeepEvents: true, BufSize: bufSize, sink: sink}
}

// Retaining reports whether the recorder keeps (or spills) full events, as
// opposed to statistics only. The engine reads it once per run to skip
// tag/detail formatting entirely for stats-only recorders; a nil recorder
// is not retaining.
func (r *Recorder) Retaining() bool {
	return r != nil && r.KeepEvents
}

// count adds e to the statistics: its kind's counter and, for a
// broadcast, its tag's. Record and RecordBatch both count through it.
func (r *Recorder) count(e *Event) {
	if uint(e.Kind) < uint(len(r.counts)) {
		r.counts[e.Kind]++
	}
	if e.Kind == KindBroadcast {
		if r.byTag == nil {
			r.byTag = make(map[string]int)
		}
		r.byTag[e.MsgTag]++
	}
}

// Record adds an event.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.count(&e)
	if !r.KeepEvents {
		return
	}
	if skewCanary != "" && r.spilled+r.n == skewEventOrdinal {
		e.Detail += " [" + skewCanary + "]"
	}
	if r.buf == nil {
		size := r.BufSize
		if size <= 0 {
			size = DefaultBufSize
		}
		r.buf = make([]staged, size)
		if skewCanary == "" {
			r.lean = size - 1
		}
	}
	r.tab.stage(&r.buf[r.n], &e)
	r.n++
	if r.n == len(r.buf) {
		r.spillBatch()
	}
}

// Intern returns the ref RecordDeliver takes for tag. A recorder that
// retains nothing keeps no strings and returns 0.
func (r *Recorder) Intern(tag string) Ref {
	if !r.Retaining() {
		return 0
	}
	return r.tab.intern(tag)
}

// RecordDeliver records a KindDeliver event at time t for pid with the
// tag Intern resolved to tag, and no detail: to the same effect as Record,
// without building an Event or looking a string up. It is the engine's
// per-copy entry point; a broadcast interns its tag once for all its
// copies. Any case but the common one — a retaining recorder with room in
// its staging buffer for this record and the next, a pid that fits a
// record, no skew canary (lean is 0 otherwise) — goes through Record; in
// an ordinary run that is the last record of each batch.
func (r *Recorder) RecordDeliver(t int64, pid int, tag Ref) {
	if r == nil {
		return
	}
	if n := r.n; n < r.lean && uint(pid) <= math.MaxInt32 {
		r.buf[n] = staged{time: t, pid: int32(pid), kind: uint32(KindDeliver), tag: tag}
		r.n = n + 1
		r.counts[KindDeliver]++
		return
	}
	v := r.tab.view()
	r.Record(Event{Time: t, Kind: KindDeliver, PID: pid, MsgTag: v.str(tag)})
}

// Count adds n events of kind k to the statistics and retains nothing: it
// is how a producer that tallies a run of events in plain ints hands them
// to a stats-only recorder in one step. The engine tallies delivered
// copies, dropped ones (to a crashed recipient, lost, or cut by a partial
// crash) and fired timers, and counts them in when Run/RunUntil returns:
// Delivered, Dropped and Timers are exact whenever it has, and may lag by
// the events of the call in progress when read from inside an AfterEvent
// hook. Broadcasts, which are also counted per tag, go through Record.
func (r *Recorder) Count(k Kind, n int) {
	if r == nil || uint(k) >= uint(len(r.counts)) {
		return
	}
	r.counts[k] += n
}

// RecordBatch adds the events of batch in order, to the same effect as
// calling Record on each; on a stats-only recorder it only counts them. It
// keeps no reference to batch.
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
	for i := range batch {
		r.count(&batch[i])
	}
}

// spillBatch hands the full staging buffer off as one batch and resets the
// write position; a batch is written exactly once. In streaming mode it
// hands the batch, with a view of the string table as it stands, to the
// background spill and records on into the next slot of the ring, which
// the stage's bound guarantees spilled: the sink sees one batch at a time,
// in recording order, while the engine keeps running. In in-memory mode
// the batch itself joins the chunk list and the recorder allocates a fresh
// buffer rather than copying.
func (r *Recorder) spillBatch() {
	batch := r.buf[:r.n]
	r.spilled += r.n
	r.n = 0
	if r.sink != nil {
		if r.spill == nil {
			r.spill = sweep.NewStage(spillDepth)
		}
		i := r.cur
		if r.spillers[i] == nil {
			r.spillers[i] = func() { r.spillSlot(i) }
		}
		r.ring[i].recs, r.ring[i].tab = batch, r.tab.view()
		r.spill.Go(r.spillers[i])
		r.cur = (i + 1) % len(r.ring)
		if r.ring[r.cur].recs == nil {
			r.ring[r.cur].recs = make([]staged, len(r.buf))
		}
		r.buf = r.ring[r.cur].recs[:len(r.buf)]
		return
	}
	r.chunks = append(r.chunks, batch)
	r.buf = make([]staged, len(r.buf))
}

// spillSlot runs on the background spill: it spills the batch in slot i —
// straight to a BinarySink, expanded to Events for any other sink — and
// keeps the sink's error if it is the first. The records hold no
// pointers, so an idle slot pins nothing.
func (r *Recorder) spillSlot(i int) {
	s := &r.ring[i]
	var err error
	if bin, ok := r.sink.(*BinarySink); ok {
		err = bin.spillStaged(s.recs, &s.tab)
	} else {
		r.expanded = s.tab.expand(r.expanded[:0], s.recs)
		err = r.sink.Spill(r.expanded)
	}
	if err != nil && r.err == nil {
		r.err = err
	}
}

// wait returns once every batch handed off so far has been spilled.
func (r *Recorder) wait() {
	if r.spill != nil {
		r.spill.Wait()
	}
}

// Flush pushes the staging buffer's partial batch to the sink (a no-op in
// in-memory mode, where Events reads the buffer in place), waits until the
// sink has taken every batch, and flushes the sink itself if it implements
// Flusher. Nothing runs on the sink after Flush returns. It returns the
// first error the sink ever reported. Call it after a run before reading
// the sink's output.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	if r.sink != nil && r.n > 0 {
		r.spillBatch()
	}
	r.wait()
	if f, ok := r.sink.(Flusher); ok {
		if err := f.Flush(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// Err returns the first error reported by the sink, if any. It waits for
// the batches handed off so far, so it covers every one of them.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.wait()
	return r.err
}

// Decisions returns the number of KindDecide events recorded so far: one
// field read, cheap enough to do after every event. The engine records a
// decision note the moment a process makes it and never tallies one, so
// in any recorder mode a run can tell from this count alone whether a
// decision was recorded since it last looked.
func (r *Recorder) Decisions() int64 {
	if r == nil {
		return 0
	}
	return int64(r.counts[KindDecide])
}

// Stats returns a snapshot of the aggregate statistics.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	c := &r.counts
	s := Stats{
		Broadcasts: c[KindBroadcast],
		Delivered:  c[KindDeliver],
		Dropped:    c[KindDrop],
		Crashes:    c[KindCrash],
		Recoveries: c[KindRecover],
		Timers:     c[KindTimer],
		TimerDrops: c[KindTimerDrop],
		Decisions:  c[KindDecide],
		ByTag:      make(map[string]int, len(r.byTag)),
	}
	maps.Copy(s.ByTag, r.byTag)
	return s
}

// Events returns the retained events in recording order, expanded from
// the staged records: all spilled in-memory chunks followed by the
// staging buffer. It returns nil for stats-only recorders and in
// streaming mode (with a Sink attached the events live wherever the sink
// put them).
//
//detlint:ignore unreached pinned by bench/layerprobe, a separate module detlint does not load
func (r *Recorder) Events() []Event {
	if r == nil || !r.KeepEvents || r.sink != nil {
		return nil
	}
	total := r.n
	for _, c := range r.chunks {
		total += len(c)
	}
	if total == 0 {
		return nil
	}
	v := r.tab.view()
	out := make([]Event, 0, total)
	for _, c := range r.chunks {
		out = v.expand(out, c)
	}
	return v.expand(out, r.buf[:r.n])
}
