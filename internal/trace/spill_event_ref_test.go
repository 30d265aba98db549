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

// TestChunkedSpillMatchesEventRef holds the frame-slice Spill to the
// per-event spillEventRef byte for byte and error for error: at frame
// strides that divide the batches and that do not, at batch sizes from one
// event up, with pids spread wide enough that a frame's bloom fills
// partway, and over writers that fail after k bytes, from inside the
// header to past the end of the trace.
func TestChunkedSpillMatchesEventRef(t *testing.T) {
	wide := pipelineEvents(3000, false)
	for i := range wide {
		wide[i].PID = i * 7919 % 5000
	}
	streams := []struct {
		name   string
		events []Event
	}{{"engine-like", pipelineEvents(3000, false)}, {"long-detail", pipelineEvents(700, true)}, {"wide-pids", wide}}
	if !bloomSaturatesMidFrame(wide, DefaultFrameEvents) || !bloomSaturatesMidFrame(wide, 600) {
		t.Fatal("the wide-pid stream never fills a frame's bloom partway: the shortcut goes untested")
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
