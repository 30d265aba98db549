package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// syncRecorder is the streaming recorder as it was before spills moved
// to a background goroutine and before it staged records, kept as the
// differential oracle (less the statistics and the skew canary, which do
// not reach the sink): it buffers Events, one buffer serves the whole
// run, and the sink is called on the recording goroutine. A BinarySink is
// spilled through spillEventRef, the per-event encoder.
type syncRecorder struct {
	sink Sink
	buf  []Event
	err  error
}

func newSyncRecorder(sink Sink, bufSize int) *syncRecorder {
	if b, ok := sink.(*BinarySink); ok {
		sink = eventRefSink{b}
	}
	if bufSize <= 0 {
		bufSize = DefaultBufSize
	}
	return &syncRecorder{sink: sink, buf: make([]Event, 0, bufSize)}
}

func (r *syncRecorder) record(e Event) {
	r.buf = append(r.buf, e)
	if len(r.buf) == cap(r.buf) {
		r.spill()
	}
}

func (r *syncRecorder) spill() {
	if err := r.sink.Spill(r.buf); err != nil && r.err == nil {
		r.err = err
	}
	r.buf = r.buf[:0]
}

func (r *syncRecorder) flush() error {
	if len(r.buf) > 0 {
		r.spill()
	}
	if f, ok := r.sink.(Flusher); ok {
		if err := f.Flush(); err != nil && r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// pipelineEvents is a seeded stream shaped like an engine's: runs of one
// message tag with an empty detail (a delivery wave), timer and decision
// details, a unique detail now and then, and times that mostly advance but
// sometimes step back. long makes every detail unique and about 200 bytes
// long, so that a batch spans several flushes of a sink's write buffer.
func pipelineEvents(n int, long bool) []Event {
	rng := rand.New(rand.NewSource(34))
	tags := []string{"BEAT", "PH1", "PH2", "", "COORD"}
	details := []string{"", "", "tag=0", "v=1", "round=2"}
	every, pad := 17, ""
	if long {
		every, pad = 1, strings.Repeat("x", 200)
	}
	out := make([]Event, n)
	var tm int64
	tag, detail := 0, 0
	for i := range out {
		if rng.Intn(8) == 0 {
			tag, detail = rng.Intn(len(tags)), rng.Intn(len(details))
		}
		tm += int64(rng.Intn(4)) - 1
		d := details[detail]
		if i%every == 0 {
			d = fmt.Sprintf("e%d%s", i, pad)
		}
		out[i] = Event{Time: tm, Kind: Kind(1 + rng.Intn(int(KindTimerDrop))), PID: rng.Intn(50), MsgTag: tags[tag], Detail: d}
	}
	return out
}

// spillAll records events into a recorder over sink, the pipelined way or
// through syncRecorder, and flushes it. Every step events apart (never,
// for step 0) it reads the first sink error into errs, and once more after
// Flush.
func spillAll(sink Sink, bufSize int, events []Event, ref bool, step int) (flushErr error, errs []error) {
	if ref {
		r := newSyncRecorder(sink, bufSize)
		for i, e := range events {
			r.record(e)
			if step > 0 && i%step == 0 {
				errs = append(errs, r.err)
			}
		}
		flushErr = r.flush()
		return flushErr, append(errs, r.err)
	}
	r := NewSpillRecorder(sink, bufSize)
	for i, e := range events {
		r.Record(e)
		if step > 0 && i%step == 0 {
			errs = append(errs, r.Err())
		}
	}
	flushErr = r.Flush()
	return flushErr, append(errs, r.Err())
}

// TestPipelinedSpillMatchesRef holds the background spill to syncRecorder
// byte for byte: with text and binary sinks, at staging-buffer sizes from
// one event (a hand-off per event) to the default, and at every frame
// stride (dividing the batch sizes or not), the recorder must write
// exactly what the synchronous recorder wrote.
func TestPipelinedSpillMatchesRef(t *testing.T) {
	sinks := []struct {
		name string
		new  func(w io.Writer) Sink
	}{
		{"text", func(w io.Writer) Sink { return NewWriterSink(w) }},
		{"binary/frame=1", func(w io.Writer) Sink { s := NewBinarySink(w); s.FrameEvents = 1; return s }},
		{"binary/frame=3", func(w io.Writer) Sink { s := NewBinarySink(w); s.FrameEvents = 3; return s }},
		{"binary/frame=default", func(w io.Writer) Sink { return NewBinarySink(w) }},
	}
	events := pipelineEvents(3*DefaultBufSize+123, false)
	for _, sc := range sinks {
		for _, bufSize := range []int{1, 7, DefaultBufSize} {
			var got, want bytes.Buffer
			gotErr, _ := spillAll(sc.new(&got), bufSize, events, false, 0)
			wantErr, _ := spillAll(sc.new(&want), bufSize, events, true, 0)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("%s buf=%d: flush errors %v (pipelined), %v (ref)", sc.name, bufSize, gotErr, wantErr)
			}
			if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s buf=%d: pipelined recorder wrote %d bytes, syncRecorder %d, and they differ",
					sc.name, bufSize, got.Len(), want.Len())
			}
		}
	}
}

// errBudget is what failAfter returns once its byte budget is spent.
var errBudget = errors.New("write budget spent")

// failAfter accepts its first k bytes and fails every write that would
// pass them, keeping the part that fits: a disk that fills up mid-write.
type failAfter struct {
	got bytes.Buffer
	k   int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if room := w.k - w.got.Len(); len(p) > room {
		w.got.Write(p[:room])
		return room, fmt.Errorf("short write after %d bytes: %w", w.k, errBudget)
	}
	return w.got.Write(p)
}

// spillCounter counts the batches that reach inner in plain ints: a
// Spill still running after Flush returned would race with the test's
// reads, which the race detector reports.
type spillCounter struct {
	inner interface {
		Sink
		Flusher
	}
	spills  int
	flushes int
}

func (c *spillCounter) Spill(batch []Event) error {
	c.spills++
	return c.inner.Spill(batch)
}

func (c *spillCounter) Flush() error {
	c.flushes++
	return c.inner.Flush()
}

// decodePrefix decodes what a failing writer accepted: the events before
// the cut, whether the reader rejected the header itself, and the error
// that ended the stream.
func decodePrefix(b []byte) (got []Event, inHeader bool, err error) {
	d, err := NewBinaryReader(bytes.NewReader(b))
	if err != nil {
		return nil, true, err
	}
	for {
		e, err := d.Next()
		if err != nil {
			return got, false, err
		}
		got = append(got, e)
	}
}

// TestFailingWriterMatchesRef runs a BinarySink over a writer that fails
// after k bytes, for budgets from nothing through the header, mid-batch
// and mid-index to more than the trace needs. Flush must report the
// writer's error, Err must agree, no Spill may run after Flush returns,
// and the bytes written, the errors seen along the way and the outcome
// must all be syncRecorder's. What the writer accepted must decode: the
// first m events exactly, m never shrinking as k grows, then an error
// wrapping ErrBinaryTrace — the header's when k cuts the header — or a
// clean end once the whole trace fit.
func TestFailingWriterMatchesRef(t *testing.T) {
	const bufSize = 64 // ~13 KiB batches: the sink's 64 KiB buffer flushes mid-batch
	// The header is the magic and a zero metadata length: no Meta here.
	const header = len(binaryMagic) + 1
	events := pipelineEvents(2000, true)
	var full bytes.Buffer
	if err, _ := spillAll(NewBinarySink(&full), bufSize, events, true, 0); err != nil {
		t.Fatal(err)
	}
	total, lastM := full.Len(), 0
	for _, k := range []int{0, 1, 8, header, header + 1, 1 << 16, 1<<16 + 1, 3<<16 + 5000, total - 100, total - 1, total, total + 1} {
		run := func(ref bool) (*failAfter, *spillCounter, error, []error) {
			w := &failAfter{k: k}
			c := &spillCounter{inner: NewBinarySink(w)}
			if ref {
				c.inner = eventRefSink{NewBinarySink(w)}
			}
			flushErr, errs := spillAll(c, bufSize, events, ref, 61)
			return w, c, flushErr, errs
		}
		w, c, flushErr, errs := run(false)
		wantW, _, wantFlush, wantErrs := run(true)
		if k < total && !errors.Is(flushErr, errBudget) {
			t.Errorf("k=%d: Flush = %v, want the writer's error", k, flushErr)
		}
		if after := errs[len(errs)-1]; after != flushErr {
			t.Errorf("k=%d: Err after Flush = %v, Flush returned %v", k, after, flushErr)
		}
		if k >= total && flushErr != nil {
			t.Errorf("k=%d: Flush = %v on a writer with room", k, flushErr)
		}
		if fmt.Sprint(flushErr) != fmt.Sprint(wantFlush) || fmt.Sprint(errs) != fmt.Sprint(wantErrs) {
			t.Errorf("k=%d: errors %v / %v, syncRecorder's %v / %v", k, errs, flushErr, wantErrs, wantFlush)
		}
		if !bytes.Equal(w.got.Bytes(), wantW.got.Bytes()) {
			t.Errorf("k=%d: wrote %d bytes, syncRecorder %d, and they differ", k, w.got.Len(), wantW.got.Len())
		}
		if want := (len(events) + bufSize - 1) / bufSize; c.spills != want || c.flushes != 1 {
			t.Errorf("k=%d: %d spills and %d flushes by the time Flush returned, want %d and 1", k, c.spills, c.flushes, want)
		}

		got, inHeader, err := decodePrefix(w.got.Bytes())
		m := len(got)
		switch {
		case !slices.Equal(got, events[:min(m, len(events))]):
			t.Errorf("k=%d: the %d decoded events are not the first %d recorded", k, m, m)
		case m < lastM:
			t.Errorf("k=%d: %d events decode, fewer than the %d of a shorter cut", k, m, lastM)
		case k >= total && (err != io.EOF || m != len(events)):
			t.Errorf("k=%d: the whole trace decodes to %d events and %v, want %d and io.EOF", k, m, err, len(events))
		case k < total && !errors.Is(err, ErrBinaryTrace):
			t.Errorf("k=%d: the cut stream ends in %v after %d events, want an ErrBinaryTrace", k, err, m)
		case inHeader != (k < header):
			t.Errorf("k=%d: header rejected: %v (%v), want %v", k, inHeader, err, k < header)
		}
		lastM = m
	}
}

// TestSpillConcurrentRecord hands one streaming recorder between four
// sweep workers, each recording under a lock of its own as the live
// runtime's delivery goroutines do under the cluster lock. Successive
// hand-offs to the background spill then start from different
// goroutines; the sink must still get every event exactly once, each
// worker's events in that worker's order.
func TestSpillConcurrentRecord(t *testing.T) {
	const workers, per = 4, 1000
	sink := &sliceSink{}
	r := NewSpillRecorder(sink, 7)
	var mu sync.Mutex
	sweep.MapOpt(sweep.Options{Workers: workers}, make([]struct{}, workers), func(w int, _ struct{}) struct{} {
		for j := 0; j < per; j++ {
			mu.Lock()
			r.Record(Event{Time: int64(j), Kind: KindDeliver, PID: w})
			mu.Unlock()
		}
		return struct{}{}
	})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	next := make([]int64, workers)
	for _, e := range sink.all() {
		if e.Time != next[e.PID] {
			t.Fatalf("worker %d: event at t=%d, want t=%d", e.PID, e.Time, next[e.PID])
		}
		next[e.PID]++
	}
	for w, n := range next {
		if n != per {
			t.Errorf("worker %d: sink got %d events, want %d", w, n, per)
		}
	}
}
