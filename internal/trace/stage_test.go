package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// stagedEvents is a seeded stream for the staged encoder: engine-like
// runs of deliveries of one tag and no detail, other kinds with fixed and
// unique details, times that mostly advance, and now and then a pid that
// does not fit a staged record's int32 (the wide escape), either sign.
func stagedEvents(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"HB", "PH1", "", "COORD"}
	details := []string{"", "lost", "tag=0", "v=1"}
	out := make([]Event, n)
	var tm int64
	tag := 0
	for i := range out {
		if rng.Intn(16) == 0 {
			tag = rng.Intn(len(tags))
		}
		tm += int64(rng.Intn(3)) - int64(rng.Intn(20)/19)
		e := Event{Time: tm, Kind: KindDeliver, PID: rng.Intn(20000), MsgTag: tags[tag]}
		switch rng.Intn(40) {
		case 0:
			e.PID = 1<<40 + rng.Intn(3)
		case 1:
			e.PID = -1<<35 - rng.Intn(3)
		case 2, 3, 4:
			e.Kind, e.Detail = Kind(1+rng.Intn(int(KindTimerDrop))), details[rng.Intn(len(details))]
		case 5:
			e.Kind, e.Detail = KindNote, fmt.Sprintf("e%d", i)
		}
		out[i] = e
	}
	return out
}

// recordVia records e through RecordDeliver when it is a delivery with
// no detail, as the engine records one, and through Record otherwise.
func recordVia(r *Recorder, e Event) {
	if e.Kind == KindDeliver && e.Detail == "" {
		r.RecordDeliver(e.Time, e.PID, r.Intern(e.MsgTag))
		return
	}
	r.Record(e)
}

// TestStagedSpillMatchesEventRef records encoderEdges and seeded random
// streams through a streaming recorder into a BinarySink — deliveries
// through RecordDeliver, the rest through Record — and holds the bytes to
// spillEventRef's for the same events, at staging-buffer sizes 1, 7 and
// the default and frame strides 1, 3 and the default. The random streams
// carry pids too wide for a staged record, and must decode back to
// exactly the events recorded, from the file and from an in-memory
// recorder and a foreign sink, which get the records expanded. A sink
// whose batches come from three string tables in turn must write the same
// bytes as one fed from one.
func TestStagedSpillMatchesEventRef(t *testing.T) {
	streams := []struct {
		name   string
		events []Event
		valid  bool // every kind is one the decoder accepts
	}{{"encoder-edges", encoderEdges(), false}, {"random-1", stagedEvents(1, 4500), true}, {"random-2", stagedEvents(2, 1500), true}}
	for _, st := range streams {
		if st.valid && !slices.ContainsFunc(st.events, func(e Event) bool { return int(int32(e.PID)) != e.PID }) {
			t.Fatalf("%s: no pid is too wide for a staged record", st.name)
		}
		for _, stride := range []int{1, 3, DefaultFrameEvents} {
			for _, bufSize := range []int{1, 7, DefaultBufSize} {
				label := fmt.Sprintf("%s stride=%d buf=%d", st.name, stride, bufSize)
				var got, want bytes.Buffer
				sink := NewBinarySink(&got)
				sink.FrameEvents = stride
				r := NewSpillRecorder(sink, bufSize)
				for _, e := range st.events {
					recordVia(r, e)
				}
				if err := r.Flush(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref := NewBinarySink(&want)
				ref.FrameEvents = stride
				if errs := spillRun(eventRefSink{ref}, st.events, []int{bufSize}); errs[len(errs)-1] != nil {
					t.Fatalf("%s: spillEventRef: %v", label, errs)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s: wrote %d bytes, spillEventRef %d, and they differ", label, got.Len(), want.Len())
				}
				if !st.valid {
					continue
				}
				decoded, err := ReadBinary(&got)
				if err != nil || !slices.Equal(decoded, st.events) {
					t.Fatalf("%s: decoded %d events (%v), not the %d recorded", label, len(decoded), err, len(st.events))
				}
			}
		}
		// One sink fed by its own Spill, then by a recorder, then by
		// another: each switch of string table comes mid-frame.
		var got, want bytes.Buffer
		sink := NewBinarySink(&got)
		third := len(st.events) / 3
		if err := sink.Spill(st.events[:third]); err != nil {
			t.Fatal(err)
		}
		for _, part := range [][]Event{st.events[third : 2*third], st.events[2*third:]} {
			r := NewSpillRecorder(sink, 7)
			for _, e := range part {
				recordVia(r, e)
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			r.spillBatch()
			r.wait()
		}
		if errs := spillRun(eventRefSink{NewBinarySink(&want)}, st.events, []int{len(st.events)}); errs[len(errs)-1] != nil || sink.Flush() != nil {
			t.Fatalf("%s: flush errors %v", st.name, errs)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: a sink fed from three string tables wrote %d bytes, spillEventRef %d, and they differ", st.name, got.Len(), want.Len())
		}
		if !st.valid {
			continue
		}
		mem := NewRecorder()
		mem.BufSize = 7
		foreign := &sliceSink{}
		spilled := NewSpillRecorder(foreign, 7)
		for _, e := range st.events {
			recordVia(mem, e)
			recordVia(spilled, e)
		}
		if err := spilled.Flush(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(mem.Events(), st.events) || !slices.Equal(foreign.all(), st.events) {
			t.Fatalf("%s: an in-memory recorder or a foreign sink did not get back the events recorded", st.name)
		}
	}
}

// TestSkewCanaryOnDeliverPath plants the skew canary and records only
// deliveries, through RecordDeliver: exactly the retained event of
// ordinal skewEventOrdinal must carry the " [skew]" detail, in memory and
// in a binary trace.
func TestSkewCanaryOnDeliverPath(t *testing.T) {
	skewCanary = "skew"
	defer func() { skewCanary = "" }()
	var buf bytes.Buffer
	mem := NewRecorder()
	mem.BufSize = 7
	bin := NewSpillRecorder(NewBinarySink(&buf), 7)
	for _, r := range []*Recorder{mem, bin} {
		tag := r.Intern("HB")
		for i := range 300 {
			r.RecordDeliver(int64(i), i%50, tag)
		}
	}
	if err := bin.Flush(); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		name   string
		events []Event
	}{{"in-memory", mem.Events()}, {"binary", decoded}} {
		name, events := got.name, got.events
		if len(events) != 300 {
			t.Fatalf("%s: %d events, want 300", name, len(events))
		}
		for i, e := range events {
			want := Event{Time: int64(i), Kind: KindDeliver, PID: i % 50, MsgTag: "HB"}
			if i == skewEventOrdinal {
				want.Detail = " [skew]"
			}
			if e != want {
				t.Fatalf("%s: event %d is %+v, want %+v", name, i, e, want)
			}
		}
	}
	if s := mem.Stats(); s.Delivered != 300 {
		t.Fatalf("the canary's delivery counted %d deliveries, want 300", s.Delivered)
	}
}

// BenchmarkRecordSpill is the engine's recording path at a traced
// heartbeat run's shape: heartbeatFrame's deliveries recorded through
// RecordDeliver into a streaming recorder over a BinarySink to
// io.Discard, the staged batches encoded on the background spill. It
// reports ns/event, the time the recording goroutine spends per delivery
// including any wait for the spill.
func BenchmarkRecordSpill(b *testing.B) {
	events := heartbeatFrame()
	r := NewSpillRecorder(NewBinarySink(io.Discard), 0)
	tag := r.Intern("HB")
	for b.Loop() {
		for i := range events {
			e := &events[i]
			r.RecordDeliver(e.Time, e.PID, tag)
		}
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
