package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

// encodeBinary spills events through a BinarySink-backed recorder with the
// given staging-buffer size and returns the encoded stream.
func encodeBinary(t *testing.T, events []Event, bufSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	r := NewSpillRecorder(NewBinarySink(&buf), bufSize)
	for _, e := range events {
		r.Record(e)
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripByteIdentical pins the format's contract: encode
// through BinarySink, decode, render with WriteText — and the text must be
// byte-identical to what a WriterSink produced from the same recording,
// across ring-wraparound and chunk-boundary batch sizes (including sizes
// that split an event stream mid-batch and leave final partial batches).
func TestBinaryRoundTripByteIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 64, 1000} {
		for _, bufSize := range []int{1, 3, 4, 7, 64, DefaultBufSize} {
			events := genEvents(n)
			bin := encodeBinary(t, events, bufSize)

			var text bytes.Buffer
			r := NewSpillRecorder(NewWriterSink(&text), bufSize)
			for _, e := range events {
				r.Record(e)
			}
			if err := r.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}

			decoded, err := ReadBinary(bytes.NewReader(bin))
			if err != nil {
				if n == 0 && errors.Is(err, ErrBinaryTrace) {
					// No spill ever happened: the stream is empty, not
					// header-only — decoding it is a format error by
					// design. The text side is empty too.
					if text.Len() != 0 || len(bin) != 0 {
						t.Fatalf("n=0: text %d bytes, bin %d bytes", text.Len(), len(bin))
					}
					continue
				}
				t.Fatalf("n=%d buf=%d: decode: %v", n, bufSize, err)
			}
			if len(decoded) != n {
				t.Fatalf("n=%d buf=%d: decoded %d events", n, bufSize, len(decoded))
			}
			for i := range decoded {
				if decoded[i] != events[i] {
					t.Fatalf("n=%d buf=%d: event %d = %+v, want %+v", n, bufSize, i, decoded[i], events[i])
				}
			}
			var rendered bytes.Buffer
			if err := WriteText(&rendered, decoded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rendered.Bytes(), text.Bytes()) {
				t.Fatalf("n=%d buf=%d: decoded rendering diverges from WriterSink output", n, bufSize)
			}
		}
	}
}

// TestBinaryRoundTripNonMonotoneTime pins the signed time delta: merged or
// hand-built traces may step backwards in time, and negative/zero/large
// deltas plus empty tags and details must survive the round trip.
func TestBinaryRoundTripNonMonotoneTime(t *testing.T) {
	events := []Event{
		{Time: 1 << 40, Kind: KindBroadcast, PID: 0, MsgTag: "A"},
		{Time: 3, Kind: KindDeliver, PID: 1 << 20, MsgTag: "A"},
		{Time: 3, Kind: KindDeliver, PID: 2},
		{Time: -17, Kind: KindNote, PID: 0, Detail: "negative time"},
		{Time: 0, Kind: KindTimerDrop, PID: 5, MsgTag: "", Detail: ""},
	}
	bin := encodeBinary(t, events, 2)
	decoded, err := ReadBinary(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i := range decoded {
		if decoded[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, decoded[i], events[i])
		}
	}
}

// TestBinaryStringTableSharing pins the size win the string table exists
// for: a stream of events repeating the same few tags encodes each string
// once, so the stream is far smaller than its text rendering.
func TestBinaryStringTableSharing(t *testing.T) {
	events := make([]Event, 0, 4096)
	for i := 0; i < 4096; i++ {
		events = append(events, Event{Time: int64(i), Kind: KindDeliver, PID: i % 7, MsgTag: "HEARTBEAT"})
	}
	bin := encodeBinary(t, events, 0)
	var text bytes.Buffer
	if err := WriteText(&text, events); err != nil {
		t.Fatal(err)
	}
	if len(bin)*4 > text.Len() {
		t.Errorf("binary %d bytes vs text %d bytes; want at least 4x smaller", len(bin), text.Len())
	}
}

// TestBinaryFrameReintroducesCachedString pins the sink's last-string
// cache to the frame boundary: when two frames open with the string the
// previous frame referenced last, each frame introduces it afresh, so every
// frame still decodes from its own first byte.
func TestBinaryFrameReintroducesCachedString(t *testing.T) {
	events := []Event{
		{Time: 1, Kind: KindDeliver, PID: 1, MsgTag: "BEAT"},
		{Time: 2, Kind: KindDeliver, PID: 2, MsgTag: "BEAT"},
		{Time: 3, Kind: KindDeliver, PID: 3, MsgTag: "BEAT"},
		{Time: 4, Kind: KindDeliver, PID: 4, MsgTag: "BEAT"},
	}
	bin := encodeV2(t, events, 2, nil)
	if got := bytes.Count(bin, []byte("BEAT")); got != 2 {
		t.Errorf("two frames wrote the tag %d times, want once per frame", got)
	}
	got, err := ReadBinary(bytes.NewReader(bin))
	if err != nil || !slices.Equal(got, events) {
		t.Fatalf("round trip = %v, %v; want %v", got, err, events)
	}
	tf, err := OpenTraceFile(bytes.NewReader(bin), int64(len(bin)))
	if err != nil {
		t.Fatal(err)
	}
	for f := range tf.Index().Frames {
		r, err := tf.OpenFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if e, err := r.Next(); err != nil || e != events[2*f+i] {
				t.Fatalf("frame %d event %d = %v, %v; want %v", f, i, e, err, events[2*f+i])
			}
		}
	}
}

// TestBinaryDecodeErrors covers the corruption paths: short/bad headers,
// unknown versions, mid-event truncation at every byte offset, dangling
// string references, and absurd string lengths. Corruption must always
// surface as ErrBinaryTrace, never as a panic or a silent short read.
func TestBinaryDecodeErrors(t *testing.T) {
	valid := encodeBinary(t, genEvents(20), 4)

	t.Run("empty", func(t *testing.T) {
		if _, err := ReadBinary(bytes.NewReader(nil)); !errors.Is(err, ErrBinaryTrace) {
			t.Errorf("got %v, want ErrBinaryTrace", err)
		}
	})
	t.Run("short-header", func(t *testing.T) {
		if _, err := ReadBinary(bytes.NewReader(valid[:5])); !errors.Is(err, ErrBinaryTrace) {
			t.Errorf("got %v, want ErrBinaryTrace", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		corrupt := append([]byte{}, valid...)
		corrupt[0] = 'X'
		if _, err := ReadBinary(bytes.NewReader(corrupt)); !errors.Is(err, ErrBinaryTrace) {
			t.Errorf("got %v, want ErrBinaryTrace", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		corrupt := append([]byte{}, valid...)
		corrupt[7] = 99
		_, err := ReadBinary(bytes.NewReader(corrupt))
		if !errors.Is(err, ErrBinaryTrace) {
			t.Fatalf("got %v, want ErrBinaryTrace", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must decode to some event prefix cleanly (cut
		// on an event boundary) or fail with ErrBinaryTrace — never panic.
		sawTruncation := false
		for cut := 8; cut < len(valid); cut++ {
			events, err := ReadBinary(bytes.NewReader(valid[:cut]))
			if err != nil {
				if !errors.Is(err, ErrBinaryTrace) {
					t.Fatalf("cut=%d: got %v, want ErrBinaryTrace", cut, err)
				}
				sawTruncation = true
				continue
			}
			if len(events) >= 20 {
				t.Fatalf("cut=%d: decoded all %d events from a truncated stream", cut, len(events))
			}
		}
		if !sawTruncation {
			t.Error("no cut position produced a truncation error")
		}
	})
	t.Run("dangling-string-ref", func(t *testing.T) {
		// header + empty meta + kind=1, dt=0, pid=0, tag ref=9 with an
		// empty table.
		stream := append(append([]byte{}, binaryMagic[:]...), 0, 1, 0, 0, 9)
		if _, err := ReadBinary(bytes.NewReader(stream)); !errors.Is(err, ErrBinaryTrace) {
			t.Errorf("got %v, want ErrBinaryTrace", err)
		}
	})
	t.Run("oversized-string", func(t *testing.T) {
		// header + empty meta + kind=1, dt=0, pid=0, tag ref=1 (new string)
		// with a 1 GiB length prefix (uvarint 0x80 0x80 0x80 0x80 0x04).
		stream := append(append([]byte{}, binaryMagic[:]...), 0, 1, 0, 0, 1, 0x80, 0x80, 0x80, 0x80, 0x04)
		if _, err := ReadBinary(bytes.NewReader(stream)); !errors.Is(err, ErrBinaryTrace) {
			t.Errorf("got %v, want ErrBinaryTrace", err)
		}
	})
	t.Run("oversized-meta", func(t *testing.T) {
		// header + a 1 GiB metadata length prefix.
		stream := append(append([]byte{}, binaryMagic[:]...), 0x80, 0x80, 0x80, 0x80, 0x04)
		if _, err := ReadBinary(bytes.NewReader(stream)); !errors.Is(err, ErrBinaryTrace) {
			t.Errorf("got %v, want ErrBinaryTrace", err)
		}
	})
}

// TestBinaryReaderStreams pins that Next is truly streaming: events arrive
// one at a time and a clean end of stream is io.EOF.
func TestBinaryReaderStreams(t *testing.T) {
	events := genEvents(10)
	bin := encodeBinary(t, events, 3)
	d, err := NewBinaryReader(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		e, err := d.Next()
		if err == io.EOF {
			if i != len(events) {
				t.Fatalf("EOF after %d events, want %d", i, len(events))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, events[i])
		}
	}
}

// genSpillBatch builds a spill batch shaped like engine output: a few hot
// tags, per-event details only on drops.
func genSpillBatch(n int) []Event {
	batch := make([]Event, n)
	tags := []string{"BEAT", "POLLING", "P_REPLY"}
	for i := range batch {
		batch[i] = Event{Time: int64(i / 7), Kind: KindDeliver, PID: i % 997, MsgTag: tags[i%len(tags)]}
		if i%50 == 0 {
			batch[i].Kind = KindDrop
			batch[i].Detail = "lost"
		}
	}
	return batch
}

// heartbeatFrame is one frame of DefaultFrameEvents deliveries shaped like
// a population-scale heartbeat trace: pids of one to three bytes, one tag,
// no detail, a tick every 64 events. Nearly every record is ordinary.
func heartbeatFrame() []Event {
	events := make([]Event, DefaultFrameEvents)
	for i := range events {
		events[i] = Event{Time: int64(i / 64), Kind: KindDeliver, PID: (i * 7919) % 20000, MsgTag: "HB"}
	}
	return events
}

// BenchmarkBinarySinkSpill compares the per-event spill cost of the binary
// sink against the text sink it replaces — the formatting work that used
// to dominate traced large-n runs. Its "binary" batch cycles three tags,
// so no record repeats the string before it; "heartbeat" spills the frame
// BenchmarkNextBatch decodes, a frame per Spill, and reports ns/event.
func BenchmarkBinarySinkSpill(b *testing.B) {
	batch := genSpillBatch(4096)
	b.Run("binary", func(b *testing.B) {
		s := NewBinarySink(io.Discard)
		for i := 0; i < b.N; i++ {
			if err := s.Spill(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("heartbeat", func(b *testing.B) {
		events := heartbeatFrame()
		s := NewBinarySink(io.Discard)
		for b.Loop() {
			if err := s.Spill(events); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
	})
	b.Run("text", func(b *testing.B) {
		s := NewWriterSink(io.Discard)
		for i := 0; i < b.N; i++ {
			if err := s.Spill(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNextBatch is the decode layer alone: one heartbeatFrame pulled
// through NextBatch into a 512-event slab, as DrainBatches does. It
// reports ns/event.
func BenchmarkNextBatch(b *testing.B) {
	events := heartbeatFrame()
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	if err := sink.Spill(events); err != nil {
		b.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		b.Fatal(err)
	}
	tf, err := OpenTraceFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	if frames := len(tf.Index().Frames); frames != 1 {
		b.Fatalf("%d frames, want 1", frames)
	}
	slab := make([]Event, 512)
	for b.Loop() {
		r, err := tf.OpenFrame(0)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for {
			n, err := r.NextBatch(slab)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		if total != len(events) {
			b.Fatalf("decoded %d events, want %d", total, len(events))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// TestDecodeSteadyStateAllocs pins the decoder's allocation budget: one
// 4096-event frame carrying three tags and two details, pulled through
// NextBatch into a reused slab, allocates one string per distinct
// tag/detail and nothing per event — the rest is the fixed cost of a
// reader (its window, its string table, the index it ends on).
func TestDecodeSteadyStateAllocs(t *testing.T) {
	tags := []string{"HB", "PH1", "COORD"}
	details := []string{"", "r=1", "sender crashed mid-broadcast"}
	events := make([]Event, DefaultFrameEvents)
	for i := range events {
		events[i] = Event{Time: int64(i / 3), Kind: KindDeliver, PID: i % 300, MsgTag: tags[i%3], Detail: details[i%3]}
	}
	bin := encodeV2(t, events, DefaultFrameEvents, nil)
	src := bytes.NewReader(bin)
	slab := make([]Event, 512)
	decode := func() {
		src.Reset(bin)
		r, err := NewBinaryReader(src)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for {
			n, err := r.NextBatch(slab)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		if total != len(events) {
			t.Fatalf("decoded %d events, want %d", total, len(events))
		}
	}
	const distinct, fixed = 5, 12
	if allocs := testing.AllocsPerRun(20, decode); allocs > distinct+fixed {
		t.Errorf("decoding %d events allocated %.0f times, want at most %d (one per distinct string) + %d (per reader)",
			len(events), allocs, distinct, fixed)
	}
}

// Drain pulls src to exhaustion, handing each event to fn: DrainBatches
// one event at a time, for tests that check event by event. It stops at
// the first error from either side; io.EOF from the source is the clean
// end and returns nil.
func Drain(src EventSource, fn func(Event) error) error {
	return DrainBatches(src, func(batch []Event) error {
		for _, e := range batch {
			if err := fn(e); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestDrainBatches pins the batch drain on both kinds of source: the
// batches concatenate to the source's sequence, a reused slab never
// exceeds its size, events ahead of a source error are delivered before
// the error comes back, and a consumer error stops the drain.
func TestDrainBatches(t *testing.T) {
	events := genEvents(3*drainSlab + 17)
	bin := encodeV2(t, events, 100, nil)
	reader := func(data []byte) *BinaryReader {
		r, err := NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	collect := func(src EventSource) ([]Event, error) {
		var got []Event
		err := DrainBatches(src, func(batch []Event) error {
			if len(batch) == 0 || len(batch) > drainSlab {
				t.Fatalf("batch of %d events", len(batch))
			}
			got = append(got, batch...)
			return nil
		})
		return got, err
	}
	for _, src := range []EventSource{reader(bin), NewSliceSource(events)} {
		if got, err := collect(src); err != nil || !slices.Equal(got, events) {
			t.Errorf("%T: drained %d events (%v), want %d", src, len(got), err, len(events))
		}
	}

	cut := bin[:len(bin)*2/3]
	want := drainAll(reader(cut), nil)
	got, err := collect(reader(cut))
	if !errors.Is(err, ErrBinaryTrace) || err.Error() != want.err || !slices.Equal(got, want.events) || len(got) == 0 {
		t.Errorf("truncated stream: drained %d events (%v), want %d (%s)", len(got), err, len(want.events), want.err)
	}

	stop := io.ErrClosedPipe
	calls := 0
	if err := DrainBatches(reader(bin), func([]Event) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("consumer error: got %v after %d calls, want %v after 1", err, calls, stop)
	}
}

// TestUvarintMatchesReadUvarint holds the decoder's one varint routine to
// encoding/binary at every length up to one past the longest, with every
// last byte, cut at every byte: the same value and length where
// ReadUvarint reads one, varintShort where it runs out of bytes, and
// varintOverflow, with the same text, where it overflows.
func TestUvarintMatchesReadUvarint(t *testing.T) {
	for size := 1; size <= binary.MaxVarintLen64+1; size++ {
		for _, fill := range []byte{0x80, 0xa5, 0xff} {
			for last := range 256 {
				b := append(bytes.Repeat([]byte{fill}, size-1), byte(last))
				for cut := range len(b) + 1 {
					// One byte ahead of the varint, as inside a record.
					x, p := uvarint(append([]byte{0x7f}, b[:cut]...), 1)
					r := bytes.NewReader(b[:cut])
					want, err := binary.ReadUvarint(r)
					var ok bool
					switch {
					case err == nil:
						ok = x == want && p == 1+cut-r.Len()
					case err == io.EOF || err == io.ErrUnexpectedEOF:
						ok = p == varintShort
					default:
						ok = p == varintOverflow && err.Error() == errVarintOverflow.Error()
					}
					if !ok {
						t.Fatalf("uvarint(% x) = %d, %d; ReadUvarint = %d, %v", b[:cut], x, p, want, err)
					}
				}
			}
		}
	}
}
