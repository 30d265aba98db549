package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
)

// genEvents builds a deterministic event stream long enough to wrap the
// staging buffer several times.
func genEvents(n int) []Event {
	out := make([]Event, 0, n)
	kinds := []Kind{KindBroadcast, KindDeliver, KindDrop, KindTimer, KindCrash, KindRecover, KindDecide}
	for i := 0; i < n; i++ {
		out = append(out, Event{
			Time:   int64(i),
			Kind:   kinds[i%len(kinds)],
			PID:    i % 5,
			MsgTag: fmt.Sprintf("T%d", i%3),
			Detail: fmt.Sprintf("e%d", i),
		})
	}
	return out
}

// TestRingWraparoundOrdering pins that events recorded across many staging-
// buffer wraparounds come back in recording order, with no event lost or
// duplicated at chunk boundaries.
func TestRingWraparoundOrdering(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 8, 9, 1000} {
		r := &Recorder{KeepEvents: true, BufSize: 4}
		in := genEvents(n)
		for _, e := range in {
			r.Record(e)
		}
		got := r.Events()
		if len(got) != n {
			t.Fatalf("n=%d: got %d events", n, len(got))
		}
		for i := range got {
			if got[i] != in[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], in[i])
			}
		}
	}
}

// sliceSink collects spilled batches and remembers their boundaries.
type sliceSink struct {
	batches [][]Event
}

func (s *sliceSink) Spill(batch []Event) error {
	s.batches = append(s.batches, slices.Clone(batch)) // the batch is only borrowed
	return nil
}

func (s *sliceSink) all() []Event {
	var out []Event
	for _, b := range s.batches {
		out = append(out, b...)
	}
	return out
}

// TestSpillChunkBoundaries pins batch sizes and cross-boundary ordering in
// streaming mode: every batch but the last is exactly BufSize events, the
// concatenation equals the recorded stream, and Events() reports nothing
// (the sink owns the trace).
func TestSpillChunkBoundaries(t *testing.T) {
	sink := &sliceSink{}
	r := NewSpillRecorder(sink, 8)
	in := genEvents(100)
	for _, e := range in {
		r.Record(e)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, b := range sink.batches[:len(sink.batches)-1] {
		if len(b) != 8 {
			t.Fatalf("batch %d has %d events, want 8", i, len(b))
		}
	}
	got := sink.all()
	if len(got) != len(in) {
		t.Fatalf("sink got %d events, want %d", len(got), len(in))
	}
	for i := range got {
		if got[i] != in[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	if r.Events() != nil {
		t.Fatal("Events() must be nil in streaming mode")
	}
}

// TestSpilledVsInMemoryIdentical runs the same stream through an in-memory
// recorder and a WriterSink recorder: the statistics must be equal and the
// rendered traces byte-identical.
func TestSpilledVsInMemoryIdentical(t *testing.T) {
	in := genEvents(777)

	mem := NewRecorder()
	mem.BufSize = 16
	var file bytes.Buffer
	spill := NewSpillRecorder(NewWriterSink(&file), 16)

	for _, e := range in {
		mem.Record(e)
		spill.Record(e)
	}
	if err := spill.Flush(); err != nil {
		t.Fatal(err)
	}

	ms, ss := mem.Stats(), spill.Stats()
	if fmt.Sprintf("%+v", ms) != fmt.Sprintf("%+v", ss) {
		t.Fatalf("stats diverge:\n in-memory: %+v\n   spilled: %+v", ms, ss)
	}

	var rendered bytes.Buffer
	if err := WriteText(&rendered, mem.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rendered.Bytes(), file.Bytes()) {
		t.Fatalf("spilled trace differs from rendered in-memory trace (%d vs %d bytes)", file.Len(), rendered.Len())
	}
}

type failSink struct{ err error }

func (s failSink) Spill([]Event) error { return s.err }

// TestSinkErrorSurfaces pins that the first sink error is kept and
// surfaced by Flush and Err (Record itself cannot return one).
func TestSinkErrorSurfaces(t *testing.T) {
	boom := errors.New("disk full")
	r := NewSpillRecorder(failSink{err: boom}, 2)
	for _, e := range genEvents(10) {
		r.Record(e)
	}
	if !errors.Is(r.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", r.Err(), boom)
	}
	if !errors.Is(r.Flush(), boom) {
		t.Fatalf("Flush() = %v, want %v", r.Flush(), boom)
	}
}

// TestNilAndZeroValueSpillSafety pins that the spill additions keep the
// nil-receiver and zero-value contracts.
func TestNilAndZeroValueSpillSafety(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Flush() != nil || nilRec.Err() != nil {
		t.Fatal("nil recorder Flush/Err must be nil")
	}
	if nilRec.Retaining() {
		t.Fatal("nil recorder must not be retaining")
	}

	zero := &Recorder{}
	for _, e := range genEvents(10) {
		zero.Record(e)
	}
	if zero.Events() != nil {
		t.Fatal("zero-value recorder must retain nothing")
	}
	if zero.Flush() != nil {
		t.Fatal("zero-value Flush must be nil")
	}
	if zero.Retaining() {
		t.Fatal("zero-value recorder is stats-only")
	}
	if !NewRecorder().Retaining() {
		t.Fatal("NewRecorder must be retaining")
	}
	if got := zero.Stats().Delivered; got != 2 {
		t.Fatalf("zero-value stats broken: delivered = %d", got)
	}
}

type nopSink struct{}

func (nopSink) Spill([]Event) error { return nil }

// TestSpillReusesStagingBuffer pins the borrowed-batch contract from the
// recorder's side: in streaming mode one ring of staging buffers serves
// the whole run, one filling while the others spill, so recording through
// any number of background spills allocates nothing — neither into a
// BinarySink, which encodes the staged records, nor into a foreign sink,
// which gets them expanded into one reused []Event.
func TestSpillReusesStagingBuffer(t *testing.T) {
	for _, sc := range []struct {
		name string
		sink Sink
	}{{"binary", NewBinarySink(io.Discard)}, {"foreign", nopSink{}}} {
		name, r := sc.name, NewSpillRecorder(sc.sink, 8)
		in := genEvents(64)
		for _, e := range in { // warm-up: the buffers, the string table and the per-tag counters
			r.Record(e)
		}
		if avg := testing.AllocsPerRun(10, func() {
			for _, e := range in {
				r.Record(e)
			}
		}); avg != 0 {
			t.Fatalf("%s: spilling 8 batches allocates %.1f times, want 0", name, avg)
		}
	}
}
