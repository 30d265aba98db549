package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// encodeV2 spills events through a BinarySink with the given frame stride
// and metadata and returns the finalized stream.
func encodeV2(t *testing.T, events []Event, stride int, meta *Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewBinarySink(&buf)
	s.FrameEvents = stride
	if meta != nil {
		s.SetMeta(meta)
	}
	if err := s.Spill(events); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Header is all a version-1 stream needs to be rejected: the v1 magic
// (nothing has written one since the v2 format landed).
var v1Header = []byte{'H', 'D', 'T', 'R', 'A', 'C', 'E', 1}

// TestBinaryV1Rejected pins the end of v1 support: the reader refuses the
// header by name, with or without events behind it, instead of decoding.
func TestBinaryV1Rejected(t *testing.T) {
	for _, bin := range [][]byte{v1Header, append(bytes.Clone(v1Header), 1, 2, 0, 0, 0)} {
		_, err := NewBinaryReader(bytes.NewReader(bin))
		if !errors.Is(err, ErrBinaryTrace) || !strings.Contains(fmt.Sprint(err), "unsupported version 1") {
			t.Fatalf("v1 stream of %d bytes: got %v, want ErrBinaryTrace naming version 1", len(bin), err)
		}
	}
}

// TestBinaryV2TrailingGarbage pins the airtight v2 case: any byte after
// the trailer is ErrTrailingData, and a v2 stream cut off before its
// end-of-events marker is a truncation error — both wrap ErrBinaryTrace,
// and both are distinct from a clean EOF.
func TestBinaryV2TrailingGarbage(t *testing.T) {
	bin := encodeV2(t, genEvents(10), 4, nil)

	if _, err := ReadBinary(bytes.NewReader(append(bytes.Clone(bin), 0x00))); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("one stray byte: got %v, want ErrTrailingData", err)
	}
	if _, err := ReadBinary(bytes.NewReader(append(bytes.Clone(bin), []byte("junk")...))); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("stray tail: got %v, want ErrTrailingData", err)
	}
	// A whole second stream appended is trailing garbage too.
	if _, err := ReadBinary(bytes.NewReader(append(bytes.Clone(bin), bin...))); !errors.Is(err, ErrTrailingData) {
		t.Fatalf("doubled stream: got %v, want ErrTrailingData", err)
	}
	// Truncation before the end marker must not read as a clean end.
	if _, err := ReadBinary(bytes.NewReader(bin[:len(bin)-20])); !errors.Is(err, ErrBinaryTrace) {
		t.Fatalf("truncated: got %v, want ErrBinaryTrace", err)
	}
}

// TestBinaryMetaRoundTrip pins the self-describing header: the scenario
// fingerprint written by the sink comes back field-identical from both
// the streaming reader and the random-access opener.
func TestBinaryMetaRoundTrip(t *testing.T) {
	meta := &Meta{
		Algo: "fig8", N: 7, L: 3, T: 2,
		Crashes: "3:40", Churn: "0.2:1:20:30", Net: "psync:60:3",
		Partitions: "10-20@3", Seed: 42, Stabilize: 100,
		Adversary: "rotate", Detectors: "mp", Horizon: 3_000_000,
	}
	bin := encodeV2(t, genEvents(10), 4, meta)

	d, err := NewBinaryReader(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta() == nil || *d.Meta() != *meta {
		t.Fatalf("streaming reader meta = %+v, want %+v", d.Meta(), meta)
	}
	tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
	if err != nil {
		t.Fatal(err)
	}
	if tf.Meta() == nil || *tf.Meta() != *meta {
		t.Fatalf("trace file meta = %+v, want %+v", tf.Meta(), meta)
	}
}

// TestBinaryIndex pins the footer index: frame records partition the
// event stream at the configured stride, carry the right ordinals and
// start times, and every frame decodes independently through OpenFrame
// to exactly its slice of the stream.
func TestBinaryIndex(t *testing.T) {
	const n, stride = 1000, 64
	events := genEvents(n)
	bin := encodeV2(t, events, stride, nil)

	// The streaming reader surfaces the same index after EOF.
	d, err := NewBinaryReader(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	if err := Drain(d, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	sIx := d.Index()
	if sIx == nil {
		t.Fatal("streaming reader has no index after EOF")
	}

	tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
	if err != nil {
		t.Fatal(err)
	}
	ix := tf.Index()
	wantFrames := (n + stride - 1) / stride
	if len(ix.Frames) != wantFrames {
		t.Fatalf("%d frames, want %d", len(ix.Frames), wantFrames)
	}
	if ix.TotalEvents != n {
		t.Fatalf("TotalEvents = %d, want %d", ix.TotalEvents, n)
	}
	if len(sIx.Frames) != len(ix.Frames) || sIx.TotalDigest != ix.TotalDigest {
		t.Fatal("streaming and random-access index disagree")
	}

	var all []Event
	for i, f := range ix.Frames {
		if f.Ordinal != uint64(i*stride) {
			t.Fatalf("frame %d ordinal = %d, want %d", i, f.Ordinal, i*stride)
		}
		if f.Start != events[f.Ordinal].Time {
			t.Fatalf("frame %d start = %d, want %d", i, f.Start, events[f.Ordinal].Time)
		}
		fr, err := tf.OpenFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		var count int
		if err := Drain(fr, func(e Event) error {
			if want := events[int(f.Ordinal)+count]; e != want {
				t.Fatalf("frame %d event %d = %+v, want %+v", i, count, e, want)
			}
			if !f.MayHavePID(e.PID) {
				t.Fatalf("frame %d bloom misses pid %d", i, e.PID)
			}
			count++
			all = append(all, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := stride
		if i == len(ix.Frames)-1 {
			want = n - i*stride
		}
		if count != want {
			t.Fatalf("frame %d decoded %d events, want %d", i, count, want)
		}
	}
	if len(all) != n {
		t.Fatalf("frames concatenate to %d events, want %d", len(all), n)
	}
}

// TestIndexFrameForTime pins the seek primitive over a monotone trace.
func TestIndexFrameForTime(t *testing.T) {
	events := make([]Event, 300)
	for i := range events {
		events[i] = Event{Time: int64(i * 10), Kind: KindNote, PID: i % 5, Detail: "x"}
	}
	bin := encodeV2(t, events, 100, nil)
	tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
	if err != nil {
		t.Fatal(err)
	}
	ix := tf.Index()
	for _, tc := range []struct {
		t    int64
		want int
	}{{-5, 0}, {0, 0}, {999, 0}, {1000, 1}, {1500, 1}, {2000, 2}, {1 << 40, 2}} {
		if got := ix.FrameForTime(tc.t); got != tc.want {
			t.Errorf("FrameForTime(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
	// Seeking the frame and scanning within it finds the exact event.
	target := int64(1570)
	fr, err := tf.OpenFrame(ix.FrameForTime(target))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	if err := Drain(fr, func(e Event) error {
		if e.Time == target {
			found = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("event at t=%d not found in its indexed frame", target)
	}
}

// TestBinaryIndexDigests pins the divergence-search invariant tracediff
// relies on: two traces equal through frame k share DigestBefore up to
// and including k, and diverge in DigestBefore from the first frame after
// the first differing event.
func TestBinaryIndexDigests(t *testing.T) {
	const n, stride = 512, 32
	a := genEvents(n)
	b := append([]Event(nil), a...)
	divergeAt := 200
	b[divergeAt].Detail = "skewed"

	binA := encodeV2(t, a, stride, nil)
	binB := encodeV2(t, b, stride, nil)
	fa, err := OpenTraceFile(bytes.NewReader(binA), int64(len(binA)))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := OpenTraceFile(bytes.NewReader(binB), int64(len(binB)))
	if err != nil {
		t.Fatal(err)
	}
	divergeFrame := divergeAt / stride
	for i := range fa.Index().Frames {
		da, db := fa.Index().Frames[i].DigestBefore, fb.Index().Frames[i].DigestBefore
		if i <= divergeFrame && da != db {
			t.Fatalf("frame %d digests diverge before the planted event (frame %d)", i, divergeFrame)
		}
		if i > divergeFrame && da == db {
			t.Fatalf("frame %d digests agree past the planted divergence", i)
		}
	}
	if fa.Index().TotalDigest == fb.Index().TotalDigest {
		t.Fatal("total digests agree across a divergence")
	}
}

// TestOpenTraceFileErrors covers the random-access failure modes:
// unfinalized streams, corrupt trailers and a v1 header must all reject
// with ErrBinaryTrace rather than misparse.
func TestOpenTraceFileErrors(t *testing.T) {
	v2 := encodeV2(t, genEvents(50), 8, nil)
	if _, err := OpenTraceFile(bytes.NewReader(v2[:len(v2)-1]), int64(len(v2)-1)); !errors.Is(err, ErrBinaryTrace) {
		t.Errorf("clipped trailer: got %v, want ErrBinaryTrace", err)
	}
	v1 := bytes.Clone(v2)
	v1[7] = 1 // finalized trailer and index, but a version the reader refuses
	if _, err := OpenTraceFile(bytes.NewReader(v1), int64(len(v1))); !errors.Is(err, ErrBinaryTrace) {
		t.Errorf("v1 header: got %v, want ErrBinaryTrace", err)
	}
	mangled := bytes.Clone(v2)
	binary.LittleEndian.PutUint64(mangled[len(mangled)-16:], uint64(len(mangled))) // index offset past EOF
	if _, err := OpenTraceFile(bytes.NewReader(mangled), int64(len(mangled))); !errors.Is(err, ErrBinaryTrace) {
		t.Errorf("wild index offset: got %v, want ErrBinaryTrace", err)
	}
}

// TestBinarySinkFlushIdempotent pins that Recorder.Flush-then-Flush (the
// hdsim fatal path can flush twice) does not corrupt the stream, and that
// spilling after finalization fails loudly instead of appending events
// the index will never cover.
func TestBinarySinkFlushIdempotent(t *testing.T) {
	var buf bytes.Buffer
	s := NewBinarySink(&buf)
	if err := s.Spill(genEvents(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	first := bytes.Clone(buf.Bytes())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf.Bytes()) {
		t.Fatal("second Flush changed the stream")
	}
	if err := s.Spill(genEvents(1)); err == nil {
		t.Fatal("Spill after finalization succeeded")
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("stream corrupt after double flush: %v", err)
	}
}

// TestBinaryReaderIsEventSource pins the EventSource seam and the Drain
// helper against a reader mid-stream error.
func TestBinaryReaderIsEventSource(t *testing.T) {
	bin := encodeV2(t, genEvents(10), 4, nil)
	var src EventSource
	d, err := NewBinaryReader(bytes.NewReader(bin[:len(bin)-20]))
	if err != nil {
		t.Fatal(err)
	}
	src = d
	if err := Drain(src, func(Event) error { return nil }); !errors.Is(err, ErrBinaryTrace) {
		t.Fatalf("Drain over truncated stream: got %v, want ErrBinaryTrace", err)
	}
	if err := Drain(NewSliceSource(genEvents(3)), func(Event) error { return nil }); err != nil {
		t.Fatalf("SliceSource drain: %v", err)
	}
	want := io.ErrClosedPipe
	if err := Drain(NewSliceSource(genEvents(3)), func(Event) error { return want }); err != want {
		t.Fatalf("Drain consumer error: got %v, want %v", err, want)
	}
}

// TestFrameReaderOffsetsAreAbsolute pins the offsets in decode errors to
// the file: a corrupt kind byte in frame 2 is reported at the same offset
// by the frame's own reader and by the streaming reader that reaches it
// from the top. (Frame readers used to count from their section's start.)
func TestFrameReaderOffsetsAreAbsolute(t *testing.T) {
	bin := encodeV2(t, genEvents(40), 8, &Meta{Algo: "ohp", N: 5})
	tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the kind of frame 2's second event: the streaming reader,
	// whose offsets have always been absolute, says where it is.
	probe, err := NewBinaryReader(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i <= tf.Index().Frames[2].Ordinal; i++ {
		if _, err := probe.Next(); err != nil {
			t.Fatal(err)
		}
	}
	kindAt := probe.w.offset()
	corrupt := bytes.Clone(bin)
	corrupt[kindAt] = 0x7f
	want := fmt.Sprintf("invalid event kind 127 at offset %d", kindAt+1)

	tf, err = OpenTraceFile(bytes.NewReader(corrupt), int64(len(corrupt)))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := tf.OpenFrame(2)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewBinaryReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []*BinaryReader{fr, stream} {
		err := Drain(src, func(Event) error { return nil })
		if !errors.Is(err, ErrBinaryTrace) || !strings.Contains(fmt.Sprint(err), want) {
			t.Errorf("bounded=%v reader: got %v, want ErrBinaryTrace with %q", src.bounded, err, want)
		}
	}
}
