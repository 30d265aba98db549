package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
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
	sIx := d.index
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

// TestOpenFrom pins the reader over a file's tail: from every frame,
// from just past the last and over an index with no frames, one reader
// decodes exactly the events from that frame's first to the trace's end,
// across every restart control between.
func TestOpenFrom(t *testing.T) {
	for _, n := range []int{0, 1000} {
		events := genEvents(n)
		bin := encodeV2(t, events, 64, nil)
		tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
		if err != nil {
			t.Fatal(err)
		}
		frames := tf.Index().Frames
		for i := 0; i <= len(frames); i++ {
			r, err := tf.OpenFrom(i)
			if err != nil {
				t.Fatal(err)
			}
			var got []Event
			if err := Drain(r, func(e Event) error {
				got = append(got, e)
				return nil
			}); err != nil {
				t.Fatalf("n=%d OpenFrom(%d): %v", n, i, err)
			}
			from := n
			if i < len(frames) {
				from = int(frames[i].Ordinal)
			}
			if !slices.Equal(got, events[from:]) {
				t.Fatalf("n=%d OpenFrom(%d) decoded %d events, want events %d.. (%d)", n, i, len(got), from, n-from)
			}
		}
		for _, i := range []int{-1, len(frames) + 1} {
			if _, err := tf.OpenFrom(i); err == nil {
				t.Errorf("n=%d OpenFrom(%d): want an out-of-range error", n, i)
			}
		}
	}
}

// TestIndexFrameForTime pins the seek primitive over a monotone trace.
// Frames start at 0, 1000 and 2000; at a frame's own start time the seek
// lands one frame earlier, because the index alone cannot rule out events
// at that time in the previous frame's tail.
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
	}{{-5, 0}, {0, 0}, {999, 0}, {1000, 0}, {1001, 1}, {1500, 1}, {2000, 1}, {2001, 2}, {1 << 40, 2}} {
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

// TestIndexFrameForTimeTied seeks a time whose events span a frame
// boundary, as a delivery wave's do: 100 events at t=1500 fill the tail of
// frame 1 and the head of frame 2. Decoding forward from the returned
// frame must meet all of them.
func TestIndexFrameForTimeTied(t *testing.T) {
	const stride, tied = 100, int64(1500)
	events := make([]Event, 400)
	for i := range events {
		switch {
		case i < 150:
			events[i].Time = int64(i * 10)
		case i < 250:
			events[i].Time = tied
		default:
			events[i].Time = tied + int64(i-249)*10
		}
		events[i].Kind, events[i].PID, events[i].Detail = KindNote, i%5, "x"
	}
	bin := encodeV2(t, events, stride, nil)
	tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
	if err != nil {
		t.Fatal(err)
	}
	ix := tf.Index()
	if ix.Frames[2].Start != tied {
		t.Fatalf("frame 2 starts at %d, want the tied time %d", ix.Frames[2].Start, tied)
	}
	at := 0
	for i := ix.FrameForTime(tied); i < len(ix.Frames); i++ {
		fr, err := tf.OpenFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := Drain(fr, func(e Event) error {
			if e.Time == tied {
				at++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if at != 100 {
		t.Fatalf("decoding forward from FrameForTime(%d) = %d met %d events at that time, want 100", tied, ix.FrameForTime(tied), at)
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
	// Junk between the index and the trailer: the trailer still finds the
	// index, which parses, but the streaming reader meets the junk where
	// it wants the trailer, and so must the random-access one.
	junk := slices.Concat(v2[:len(v2)-16], []byte{0, 0}, v2[len(v2)-16:])
	if _, err := ReadBinary(bytes.NewReader(junk)); !errors.Is(err, ErrBinaryTrace) {
		t.Errorf("junk before trailer, streamed: got %v, want ErrBinaryTrace", err)
	}
	if _, err := OpenTraceFile(bytes.NewReader(junk), int64(len(junk))); !errors.Is(err, ErrBinaryTrace) ||
		!strings.Contains(err.Error(), "2 bytes before the trailer") {
		t.Errorf("junk before trailer: got %v, want ErrBinaryTrace naming 2 stray bytes", err)
	}
}

// TestDrainShards: at every shard count from one to one per frame, the
// shards concatenate to the events the streaming reader decodes.
func TestDrainShards(t *testing.T) {
	for _, n := range []int{1, 1000} {
		events := genEvents(n)
		bin := encodeV2(t, events, 64, nil)
		tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
		if err != nil {
			t.Fatal(err)
		}
		frames := len(tf.Index().Frames)
		for _, k := range []int{1, 2, 3, frames} {
			if k > frames {
				continue
			}
			shards := make([][]Event, k)
			fns := make([]func([]Event), k)
			for s := range fns {
				fns[s] = func(batch []Event) { shards[s] = append(shards[s], batch...) }
			}
			if err := tf.DrainShards(fns); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			if got := slices.Concat(shards...); !slices.Equal(got, events) {
				t.Fatalf("n=%d k=%d: shards hold %d events, want the %d streamed", n, k, len(got), n)
			}
		}
	}
}

// TestDrainShardsUnproven: each way the index can fail to prove the layout
// is refused with ErrShardLayout, and each is a file the streaming reader
// decodes to other events than the shards would, or refuses. The index is
// edited in memory after opening, as a damaged file's would read.
func TestDrainShardsUnproven(t *testing.T) {
	bin := encodeV2(t, genEvents(1000), 64, nil)
	open := func(t *testing.T) *TraceFile {
		t.Helper()
		tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
		if err != nil {
			t.Fatal(err)
		}
		return tf
	}
	// restart is the offset of the restart control before frame 4, the
	// boundary between two shards out of four.
	tf := open(t)
	restart := tf.index.Frames[4].Offset - 2
	second := tf.openFrames(4, 5) // where frame 4's second event starts
	if _, err := second.Next(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		shards int
		edit   func(tf *TraceFile, data []byte) []byte
	}{
		{"no shards", 0, nil},
		{"more shards than frames", 17, nil},
		// Frame 0 left out of the index, and its events out of the total:
		// the shards agree with the index, but a streaming reader decodes
		// frame 0 too.
		{"frame 0 past the header", 4, func(tf *TraceFile, data []byte) []byte {
			tf.index.Frames = tf.index.Frames[1:]
			tf.index.TotalEvents -= tf.index.Frames[0].Ordinal
			return data
		}},
		{"boundary off by one", 4, func(tf *TraceFile, data []byte) []byte {
			tf.index.Frames[4].Offset++
			return data
		}},
		// The shard before decodes cleanly to frame 4's first event's end,
		// which is no restart control.
		{"boundary on an event", 4, func(tf *TraceFile, data []byte) []byte {
			tf.index.Frames[4].Offset = second.w.offset() + 2
			return data
		}},
		{"end control at a boundary", 4, func(tf *TraceFile, data []byte) []byte {
			data[restart+1] = controlEnd
			return data
		}},
		{"end control inside a section", 2, func(tf *TraceFile, data []byte) []byte {
			data[restart+1] = controlEnd
			return data
		}},
		// An end control inserted as the last record of a section, with the
		// restart control right after it: only the reader knows it stopped
		// at a control rather than at the section's end.
		{"end control ending a section", 4, func(tf *TraceFile, data []byte) []byte {
			for i := 4; i < len(tf.index.Frames); i++ {
				tf.index.Frames[i].Offset += 2
			}
			tf.indexOff += 2
			return slices.Concat(data[:restart], []byte{0, controlEnd}, data[restart:])
		}},
		{"no end control before the index", 4, func(tf *TraceFile, data []byte) []byte {
			data[tf.indexOff-1] = controlRestart
			return data
		}},
		{"corrupt event", 4, func(tf *TraceFile, data []byte) []byte {
			data[tf.index.Frames[9].Offset] = 0x7f // an invalid kind
			return data
		}},
		{"total events", 4, func(tf *TraceFile, data []byte) []byte {
			tf.index.TotalEvents++
			return data
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tf, data := open(t), bytes.Clone(bin)
			if tc.edit != nil {
				data = tc.edit(tf, data)
			}
			tf.r = bytes.NewReader(data)
			fns := make([]func([]Event), tc.shards)
			for s := range fns {
				fns[s] = func([]Event) {}
			}
			if err := tf.DrainShards(fns); !errors.Is(err, ErrShardLayout) {
				t.Errorf("got %v, want ErrShardLayout", err)
			}
		})
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
