package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// decoded is everything a caller can observe of one pass over a stream.
type decoded struct {
	meta   *Meta
	events []Event
	err    string // final error text; "EOF" for a clean end
	format bool   // the final error wraps ErrBinaryTrace
	index  *Index
}

// eventSource is the part of BinaryReader and refReader a pass uses.
type eventSource interface {
	Next() (Event, error)
	Meta() *Meta
	Index() *Index
}

func (d *refReader) Meta() *Meta   { return d.meta }
func (d *refReader) Index() *Index { return d.index }

// drainAll runs src to its first error. A constructor error (src nil)
// counts as the final error of an empty pass.
func drainAll(src eventSource, err error) decoded {
	var out decoded
	if err == nil {
		out.meta = src.Meta()
		for {
			var e Event
			if e, err = src.Next(); err != nil {
				break
			}
			out.events = append(out.events, e)
		}
		out.index = src.Index()
	}
	out.err, out.format = err.Error(), errors.Is(err, ErrBinaryTrace)
	return out
}

func (a decoded) diff(b decoded) string {
	switch {
	case a.err != b.err:
		return fmt.Sprintf("error %q, reference %q", a.err, b.err)
	case a.format != b.format:
		return fmt.Sprintf("wraps ErrBinaryTrace: %v, reference %v", a.format, b.format)
	case !slices.Equal(a.events, b.events):
		return fmt.Sprintf("events differ: %d, reference %d:\n%v\n%v", len(a.events), len(b.events), a.events, b.events)
	case !reflect.DeepEqual(a.meta, b.meta):
		return fmt.Sprintf("meta %+v, reference %+v", a.meta, b.meta)
	case !reflect.DeepEqual(a.index, b.index):
		return fmt.Sprintf("index %+v, reference %+v", a.index, b.index)
	}
	return ""
}

// againstReference decodes data with the window decoder (at the given
// window size, through Next) and with the reference decoder, each behind
// its own wrap of the bytes, and fails the test on any observable
// difference. It returns the pass for further checks.
func againstReference(t testing.TB, data []byte, window int, wrap func(io.Reader) io.Reader) decoded {
	t.Helper()
	r, err := newBinaryReader(wrap(bytes.NewReader(data)), window)
	got := drainAll(r, err)
	ref, err := newRefReader(wrap(bytes.NewReader(data)))
	want := drainAll(ref, err)
	if d := got.diff(want); d != "" {
		t.Fatalf("window %d: %s\ninput %x", window, d, data)
	}
	return got
}

// framesAgainstReference does the same for every frame reader a
// random-access open of data hands out, against the reference decoder run
// over the same section with the same starting offset.
func framesAgainstReference(t testing.TB, data []byte) {
	t.Helper()
	tf, err := OpenTraceFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		if !errors.Is(err, ErrBinaryTrace) {
			t.Fatalf("OpenTraceFile error does not wrap ErrBinaryTrace: %v", err)
		}
		return
	}
	frames := tf.Index().Frames
	for i, f := range frames {
		fr, err := tf.OpenFrame(i)
		if err != nil {
			t.Fatalf("OpenFrame(%d): %v", i, err)
		}
		got := drainAll(fr, nil)
		end := tf.indexOff - 2
		if i+1 < len(frames) {
			end = frames[i+1].Offset - 2
		}
		section := io.NewSectionReader(bytes.NewReader(data), int64(f.Offset), int64(end-f.Offset))
		ref := &refReader{r: &byteCounter{r: bufio.NewReader(section), n: f.Offset}, meta: tf.Meta(), bounded: true}
		if d := got.diff(drainAll(ref, nil)); d != "" {
			t.Fatalf("frame %d: %s\ninput %x", i, d, data)
		}
		if !got.format && got.err != "EOF" {
			t.Fatalf("frame %d decode error does not wrap ErrBinaryTrace: %s", i, got.err)
		}
	}
}

// batchesAgainstNext checks NextBatch's contract at one slab size: the
// batches concatenate to exactly Next's sequence — the events ahead of an
// error included — and end in the same error.
func batchesAgainstNext(t testing.TB, data []byte, window, slabSize int, want decoded) {
	t.Helper()
	r, err := newBinaryReader(bytes.NewReader(data), window)
	var got decoded
	if err == nil {
		got.meta = r.Meta()
		slab := make([]Event, slabSize)
		for {
			var n int
			if n, err = r.NextBatch(slab); err != nil {
				if n != 0 {
					t.Fatalf("NextBatch returned %d events with error %v", n, err)
				}
				break
			}
			if n == 0 {
				t.Fatalf("NextBatch returned no events and no error")
			}
			got.events = append(got.events, slab[:n]...)
		}
		got.index = r.Index()
	}
	got.err, got.format = err.Error(), errors.Is(err, ErrBinaryTrace)
	if d := got.diff(want); d != "" {
		t.Fatalf("NextBatch(%d) against Next, window %d: %s\ninput %x", slabSize, window, d, data)
	}
}

// handTrace assembles a finalized v2 stream record by record, so a test
// can write encodings BinarySink never would (a non-canonical varint) and
// still end in an index and trailer that agree with the body.
type handTrace struct {
	buf     []byte
	frames  []Frame
	count   uint64
	inFrame bool
}

func newHandTrace(meta *Meta) *handTrace {
	h := &handTrace{buf: append([]byte{}, binaryMagic[:]...)}
	var metaJSON []byte
	if meta != nil {
		metaJSON, _ = json.Marshal(meta)
	}
	h.buf = binary.AppendUvarint(h.buf, uint64(len(metaJSON)))
	h.buf = append(h.buf, metaJSON...)
	return h
}

// event appends one event record from raw field encodings.
func (h *handTrace) event(start int64, pid int, fields ...[]byte) {
	if !h.inFrame {
		h.frames = append(h.frames, Frame{Ordinal: h.count, Start: start, Offset: uint64(len(h.buf)), DigestBefore: fnvOffset})
		h.inFrame = true
	}
	h.frames[len(h.frames)-1].PIDBloom |= pidBloomBits(pid)
	for _, f := range fields {
		h.buf = append(h.buf, f...)
	}
	h.count++
}

func (h *handTrace) restart() {
	h.buf = append(h.buf, 0, controlRestart)
	h.inFrame = false
}

func (h *handTrace) finish() []byte {
	h.buf = append(h.buf, 0, controlEnd)
	indexOff := uint64(len(h.buf))
	h.buf = binary.AppendUvarint(h.buf, uint64(len(h.frames)))
	for _, f := range h.frames {
		h.buf = binary.AppendUvarint(h.buf, f.Ordinal)
		h.buf = binary.AppendVarint(h.buf, f.Start)
		h.buf = binary.AppendUvarint(h.buf, f.Offset)
		h.buf = binary.LittleEndian.AppendUint64(h.buf, f.PIDBloom)
		h.buf = binary.LittleEndian.AppendUint64(h.buf, f.DigestBefore)
	}
	h.buf = binary.AppendUvarint(h.buf, h.count)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, fnvOffset)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, indexOff)
	return append(h.buf, indexEndMagic[:]...)
}

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }
func sv(v int64) []byte  { return binary.AppendVarint(nil, v) }

// newStr is a string reference that introduces s as table entry ref.
func newStr(ref uint64, s string) []byte {
	return append(append(uv(ref), uv(uint64(len(s)))...), s...)
}

// differentialTrace is the small trace the differential tests take apart:
// three frames, metadata, four distinct strings (one first seen in the
// middle of a frame, one longer than the small test window), a detail
// that refers to the tag introduced by the same event, a negative time
// delta, varints of one, two, three and six bytes and a non-canonical
// two-byte one.
func differentialTrace() ([]byte, []Event) {
	long := strings.Repeat("quorum-", 6) // 42 bytes against a 16-byte window
	h := newHandTrace(&Meta{Algo: "fig9", N: 300, L: 3, Seed: 7})
	h.event(5, 0, uv(uint64(KindBroadcast)), sv(5), uv(0), newStr(1, "PH1"), newStr(2, "r1"))
	h.event(5, 299, uv(uint64(KindDeliver)), sv(0), uv(299), uv(1), uv(2))
	h.event(3, 1, uv(uint64(KindDrop)), sv(-2), uv(1), uv(1), newStr(3, long)) // time steps back; new string mid-frame
	h.restart()
	h.event(9, 2, uv(uint64(KindTimer)), sv(9), []byte{0x82, 0x00}, newStr(1, "T"), uv(1)) // pid 2, non-canonically; detail = the new tag
	h.event(9, 20000, uv(uint64(KindCrash)), sv(0), uv(20000), uv(0), uv(0))               // three-byte pid
	h.restart()
	h.event(1<<40, 1, uv(uint64(KindDecide)), sv(1<<40), uv(1), uv(0), newStr(1, "v=1")) // six-byte delta
	want := []Event{
		{Time: 5, Kind: KindBroadcast, PID: 0, MsgTag: "PH1", Detail: "r1"},
		{Time: 5, Kind: KindDeliver, PID: 299, MsgTag: "PH1", Detail: "r1"},
		{Time: 3, Kind: KindDrop, PID: 1, MsgTag: "PH1", Detail: long},
		{Time: 9, Kind: KindTimer, PID: 2, MsgTag: "T", Detail: "T"},
		{Time: 9, Kind: KindCrash, PID: 20000},
		{Time: 1 << 40, Kind: KindDecide, PID: 1, Detail: "v=1"},
	}
	return h.finish(), want
}

// testWindows are the window sizes the differential tests decode at: one
// smaller than most records (every record straddles a refill and the long
// string forces the window to grow) and the production size.
var testWindows = []int{16, windowSize}

func plain(r io.Reader) io.Reader { return r }

var sourceWraps = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"bytes.Reader", plain},
	{"OneByteReader", iotest.OneByteReader},
	{"HalfReader", iotest.HalfReader},
	{"DataErrReader", iotest.DataErrReader},
}

// TestDifferentialValid: the hand-built trace decodes to the events it
// was built from, identically to the reference, under every source
// behaviour, window and batch size, frame by frame too.
func TestDifferentialValid(t *testing.T) {
	data, want := differentialTrace()
	for _, sw := range sourceWraps {
		for _, window := range testWindows {
			got := againstReference(t, data, window, sw.wrap)
			if got.err != "EOF" || !slices.Equal(got.events, want) {
				t.Fatalf("%s, window %d: decoded %v (%s), want %v", sw.name, window, got.events, got.err, want)
			}
			if got.index == nil || len(got.index.Frames) != 3 || got.index.TotalEvents != 6 {
				t.Fatalf("%s, window %d: index %+v", sw.name, window, got.index)
			}
		}
	}
	framesAgainstReference(t, data)
}

// TestDifferentialTruncations: every prefix of the trace fails (or, whole,
// succeeds) exactly as the reference does — same events first, same error
// text — under every source behaviour, window and batch size.
func TestDifferentialTruncations(t *testing.T) {
	data, _ := differentialTrace()
	for cut := 0; cut <= len(data); cut++ {
		for _, window := range testWindows {
			var got decoded
			for _, sw := range sourceWraps {
				got = againstReference(t, data[:cut], window, sw.wrap)
			}
			if cut < len(data) && !got.format {
				t.Fatalf("cut at %d: error %q does not wrap ErrBinaryTrace", cut, got.err)
			}
			for _, slab := range []int{1, 7, 512} {
				batchesAgainstNext(t, data[:cut], window, slab, got)
			}
		}
		framesAgainstReference(t, data[:cut])
	}
}

// TestDifferentialMutations: every single-byte change to the trace — all
// 255 other values at every offset — is accepted or rejected exactly as
// the reference does, event for event and word for word.
func TestDifferentialMutations(t *testing.T) {
	data, _ := differentialTrace()
	mutated := make([]byte, len(data))
	for i := range data {
		for delta := 1; delta < 256; delta++ {
			copy(mutated, data)
			mutated[i] ^= byte(delta)
			got := againstReference(t, mutated, 16, plain)
			if delta%51 == 0 { // five values per offset at the production window, through the slow sources and the batch face
				againstReference(t, mutated, windowSize, plain)
				againstReference(t, mutated, 16, iotest.OneByteReader)
				againstReference(t, mutated, 16, iotest.DataErrReader)
				againstReference(t, mutated, windowSize, iotest.HalfReader)
				for _, slab := range []int{1, 7, 512} {
					batchesAgainstNext(t, mutated, 16, slab, got)
				}
			}
			framesAgainstReference(t, mutated)
		}
	}
}

// TestDifferentialLongString: a string longer than the production window
// makes the window grow to hold its record, and decodes (or is reported
// cut off) exactly as before.
func TestDifferentialLongString(t *testing.T) {
	long := strings.Repeat("x", windowSize+4321)
	events := []Event{
		{Time: 1, Kind: KindNote, PID: 1, MsgTag: "A", Detail: "short"},
		{Time: 2, Kind: KindNote, PID: 2, MsgTag: "A", Detail: long},
		{Time: 3, Kind: KindNote, PID: 3, MsgTag: long, Detail: "short"},
	}
	data := encodeV2(t, events, 2, nil)
	for _, sw := range sourceWraps {
		got := againstReference(t, data, windowSize, sw.wrap)
		if got.err != "EOF" || !slices.Equal(got.events, events) {
			t.Fatalf("%s: decoded %d events (%s)", sw.name, len(got.events), got.err)
		}
	}
	for _, cut := range []int{windowSize - 1, windowSize, windowSize + 1, windowSize + 4000, len(data) - 40} {
		got := againstReference(t, data[:cut], windowSize, plain)
		batchesAgainstNext(t, data[:cut], windowSize, 7, got)
	}
	framesAgainstReference(t, data)
}

// TestReadErrorsPassThrough: a read error of the source that is not
// io.EOF is returned as it came — never dressed as a format error —
// wherever in the stream it strikes, after the events that were read
// whole before it. This is the one place the window decoder departs from
// the reference on purpose: past the header, the reference reported such
// an error as `<field>: <error>` wrapped in ErrBinaryTrace, against
// ErrBinaryTrace's own contract (it tells corruption from I/O).
func TestReadErrorsPassThrough(t *testing.T) {
	boom := errors.New("boom")
	data, want := differentialTrace()

	// From the first read on, both decoders return it bare.
	got := againstReference(t, data, windowSize, func(io.Reader) io.Reader { return iotest.ErrReader(boom) })
	if got.err != "boom" || got.format {
		t.Fatalf("ErrReader: %q (wraps ErrBinaryTrace: %v)", got.err, got.format)
	}

	for cut := 0; cut <= len(data); cut++ {
		for _, window := range testWindows {
			src := io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(boom))
			r, err := newBinaryReader(src, window)
			pass := drainAll(r, err)
			if pass.err != "boom" || pass.format {
				t.Fatalf("read error after %d bytes, window %d: got %q (wraps ErrBinaryTrace: %v)", cut, window, pass.err, pass.format)
			}
			if len(pass.events) > len(want) || !slices.Equal(pass.events, want[:len(pass.events)]) {
				t.Fatalf("read error after %d bytes, window %d: events %v", cut, window, pass.events)
			}
			if err == nil {
				if _, again := r.Next(); again != boom {
					t.Fatalf("read error after %d bytes: second call returned %v", cut, again)
				}
			}
		}
	}
}
