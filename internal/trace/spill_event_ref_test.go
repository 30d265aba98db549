package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// spillEventRef is BinarySink.Spill as it was before it encoded a frame
// slice per write, kept as the differential oracle: each event is encoded
// on its own, written and digested on its own, and OR-ed into the frame's
// bloom, and a frame that fills writes its restart control separately.
func (s *BinarySink) spillEventRef(batch []Event) error {
	if s.closed {
		return fmt.Errorf("trace: spill after the stream was finalized")
	}
	if !s.wrote {
		if err := s.header(); err != nil {
			return err
		}
	}
	stride := s.FrameEvents
	if stride <= 0 {
		stride = DefaultFrameEvents
	}
	for _, e := range batch {
		if s.inFrame == 0 {
			s.cur = Frame{Ordinal: s.count, Start: e.Time, Offset: s.off, DigestBefore: s.digest}
		}
		s.enc = s.enc[:0]
		s.enc = binary.AppendUvarint(s.enc, uint64(e.Kind))
		s.enc = binary.AppendVarint(s.enc, e.Time-s.lastT)
		s.lastT = e.Time
		s.enc = binary.AppendUvarint(s.enc, uint64(e.PID))
		s.enc = s.appendString(s.enc, e.MsgTag)
		s.enc = s.appendString(s.enc, e.Detail)
		if err := s.writeBody(s.enc); err != nil {
			return err
		}
		s.cur.PIDBloom |= pidBloomBits(e.PID)
		s.count++
		s.inFrame++
		if s.inFrame == stride {
			if err := s.writeBody([]byte{0, controlRestart}); err != nil {
				return err
			}
			s.closeFrame()
		}
	}
	return nil
}

// appendString appends v's wire ref, introducing v into the frame's
// table on first use: appendRef as it was before the sink staged its
// events, with no shortcut before the table lookup.
func (s *BinarySink) appendString(enc []byte, v string) []byte {
	if v == "" {
		return append(enc, 0)
	}
	ref, ok := s.frameStrs[v]
	if !ok {
		ref = uint64(len(s.frameStrs)) + 1
		s.frameStrs[v] = ref
	}
	enc = binary.AppendUvarint(enc, ref)
	if ok {
		return enc
	}
	enc = binary.AppendUvarint(enc, uint64(len(v)))
	return append(enc, v...)
}

// writeBody writes p as body bytes: counted and digested. It is how
// Spill wrote and digested a frame slice before it digested each record
// as it appended it.
func (s *BinarySink) writeBody(p []byte) error {
	if _, err := s.w.Write(p); err != nil {
		return err
	}
	s.off += uint64(len(p))
	s.digest = fnvSum(s.digest, p)
	return nil
}

// eventRefSink is a BinarySink spilling through spillEventRef.
type eventRefSink struct{ *BinarySink }

func (s eventRefSink) Spill(batch []Event) error { return s.spillEventRef(batch) }

// spillRun spills events into sink in batches of the given sizes
// (cycled) and flushes it, and returns every error along the way, the
// last one Flush's.
func spillRun(sink Sink, events []Event, sizes []int) []error {
	var errs []error
	for i, j := 0, 0; i < len(events); j++ {
		n := min(sizes[j%len(sizes)], len(events)-i)
		errs = append(errs, sink.Spill(events[i:i+n]))
		i += n
	}
	return append(errs, sink.(Flusher).Flush())
}

// bloomSaturatesMidFrame reports whether some frame of stride events
// fills its pid bloom before its last event: the case where the chunked
// encoder stops OR-ing bits in.
func bloomSaturatesMidFrame(events []Event, stride int) bool {
	for start := 0; start < len(events); start += stride {
		end := min(start+stride, len(events))
		var bloom uint64
		for i := start; i < end; i++ {
			bloom |= pidBloomBits(events[i].PID)
			if bloom == ^uint64(0) && i < end-1 {
				return true
			}
		}
	}
	return false
}

// encoderEdges is a stream that takes every exit of spillStaged's
// ordinary-record check at least once, each beside a record that just
// passes it, and then spreads its pids until the frame's bloom fills.
// Ordinary means: kind and zigzag time delta of one byte each, a pid in
// [0, 2²¹), the string appendRef referenced last as the tag with a ref
// below 128, and no detail.
func encoderEdges() []Event {
	var out []Event
	var tm int64
	add := func(dt int64, kind Kind, pid int, tag, detail string) {
		tm += dt
		out = append(out, Event{Time: tm, Kind: kind, PID: pid, MsgTag: tag, Detail: detail})
	}
	hb := func() { add(0, KindDeliver, 3, "HB", "") } // ordinary once HB is the last string

	hb() // HB is new: exit (the frame's first tag)
	hb()
	// Time deltas: -64 and 63 zigzag to one byte (ordinary), 64 and -65
	// to two (exit).
	for _, dt := range []int64{-64, 63, 64, -65} {
		add(dt, KindDeliver, 3, "HB", "")
		hb()
	}
	// Pids: 127 takes one byte, 128 and 16383 two, 16384 and 2²¹−1 three
	// (all ordinary); 2²¹ takes four and -1 ten (exit). 2⁴⁰ and -2⁴⁰ do
	// not fit a staged record's int32 either: a recorder stages them wide.
	for _, pid := range []int{127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, -1, 1 << 40, -1 << 40} {
		add(1, KindDeliver, pid, "HB", "")
		hb()
	}
	// Kind 128 takes two bytes (exit). No kind has that value, but the
	// encoder writes what it is given, as spillEventRef does. 2³²−1 is the
	// staged record's wide marker, and -1 and 2³² do not fit its uint32:
	// all three are staged wide.
	for _, k := range []Kind{128, 1<<32 - 1, -1, 1 << 32} {
		add(0, k, 3, "HB", "")
		hb()
	}
	// Tags and details.
	add(0, KindDeliver, 3, "PH1", "") // a new tag: exit
	hb()                              // a known tag that is not the last: exit
	hb()
	add(0, KindDeliver, 3, "", "")      // an empty tag after HB: exit
	hb()                                // HB is still the last string: ordinary
	add(0, KindDeliver, 3, "HB", "v=1") // a non-empty detail: exit, and v=1 is now the last string
	add(0, KindDeliver, 3, "v=1", "")   // the last string, referenced by a detail: ordinary
	add(0, KindDeliver, 3, "HB", "v=1") // a known tag that is not the last, and a detail: exit
	// Refs: HB, PH1 and v=1 are 1..3, so s0..s129 are 4..133 and the
	// frame holds 133 distinct strings. s123 is ref 127 (ordinary when it
	// repeats), s124 ref 128 (a two-byte ref: exit even when it repeats).
	for i := range 130 {
		add(0, KindNote, 5, fmt.Sprintf("s%d", i), "") // new strings: exit
	}
	for _, tag := range []string{"s123", "s123", "s124", "s124", "s129", "HB", "HB"} {
		add(0, KindDeliver, 5, tag, "")
	}
	// Spread pids until the bloom is all ones well before the frame ends.
	for i := range 2000 {
		add(int64(i%3/2), KindDeliver, i*7919%20000, "HB", "")
	}
	return out
}

// TestChunkedSpillMatchesEventRef holds the frame-slice Spill to the
// per-event spillEventRef byte for byte and error for error: at frame
// strides that divide the batches and that do not, at batch sizes from one
// event up, with pids spread wide enough that a frame's bloom fills
// partway, over encoderEdges' exits of the ordinary-record check, and
// over writers that fail after k bytes, from inside the header to past
// the end of the trace.
func TestChunkedSpillMatchesEventRef(t *testing.T) {
	wide := pipelineEvents(3000, false)
	for i := range wide {
		wide[i].PID = i * 7919 % 5000
	}
	streams := []struct {
		name   string
		events []Event
	}{{"engine-like", pipelineEvents(3000, false)}, {"long-detail", pipelineEvents(700, true)}, {"wide-pids", wide},
		{"encoder-edges", encoderEdges()}}
	for _, st := range streams[2:] {
		if !bloomSaturatesMidFrame(st.events, DefaultFrameEvents) || !bloomSaturatesMidFrame(st.events, 600) {
			t.Fatalf("the %s stream never fills a frame's bloom partway: the shortcut goes untested", st.name)
		}
	}

	rng := rand.New(rand.NewSource(38))
	random := make([]int, 50)
	for i := range random {
		random[i] = 1 + rng.Intn(300)
	}
	// The failing writers run on three of the batchings: one event per
	// Spill, seven, and a mixed one.
	batchings := []struct {
		sizes []int
		fail  bool
	}{{[]int{1}, true}, {[]int{2}, false}, {[]int{7}, true}, {[]int{64}, false}, {[]int{1000}, false},
		{[]int{4096}, false}, {[]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, true}, {random, false}}

	for _, st := range streams {
		name, events := st.name, st.events
		for _, stride := range []int{1, 3, 7, 64, 600, 0, 5000} {
			for _, b := range batchings {
				sizes := b.sizes
				newSinks := func(w, wantW io.Writer) (Sink, Sink) {
					got, want := NewBinarySink(w), NewBinarySink(wantW)
					got.FrameEvents, want.FrameEvents = stride, stride
					return got, eventRefSink{want}
				}
				var gotBuf, wantBuf bytes.Buffer
				got, want := newSinks(&gotBuf, &wantBuf)
				gotErrs, wantErrs := spillRun(got, events, sizes), spillRun(want, events, sizes)
				label := fmt.Sprintf("%s stride=%d batches=%v", name, stride, sizes[:min(len(sizes), 4)])
				if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
					t.Fatalf("%s: errors %v, spillEventRef's %v", label, gotErrs, wantErrs)
				}
				if wantBuf.Len() == 0 || !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
					t.Fatalf("%s: wrote %d bytes, spillEventRef %d, and they differ", label, gotBuf.Len(), wantBuf.Len())
				}
				if !b.fail {
					continue
				}
				total := wantBuf.Len()
				for _, k := range []int{0, 5, 9, 10, 100, total / 3, total / 2, total - 40, total - 1, total, total + 1} {
					gotW, wantW := &failAfter{k: k}, &failAfter{k: k}
					got, want := newSinks(gotW, wantW)
					gotErrs, wantErrs := spillRun(got, events, sizes), spillRun(want, events, sizes)
					if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
						t.Fatalf("%s k=%d: errors %v, spillEventRef's %v", label, k, gotErrs, wantErrs)
					}
					if !bytes.Equal(gotW.got.Bytes(), wantW.got.Bytes()) {
						t.Fatalf("%s k=%d: wrote %d bytes, spillEventRef %d, and they differ", label, k, gotW.got.Len(), wantW.got.Len())
					}
				}
			}
		}
	}
}
