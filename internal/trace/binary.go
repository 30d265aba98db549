package trace

// Compact binary trace format. Text rendering dominates spill cost (every
// event is a fmt.Sprintf), and text traces at large n dominate disk: the
// binary sink writes roughly an order of magnitude less and formats
// nothing. Version 2, the only one written and read, is self-describing
// and seekable.
//
//	header:  8-byte magic "HDTRACE\x02" (the trailing byte is the format
//	         version), then the metadata block: a uvarint byte length and
//	         that many bytes of JSON (Meta). Length 0 = no metadata.
//	body:    events, grouped into frames of FrameEvents events each. The
//	         string table and the time base reset at every frame boundary,
//	         so a frame decodes from its own first byte with fresh state —
//	         that self-containment is what makes the index useful.
//	event:   kind     uvarint (1..KindTimerDrop; 0 escapes to a control
//	                  record, any other value is a corruption error)
//	         Δtime    signed varint (zigzag), delta vs the previous
//	                  event's time (first event of a frame: delta vs 0)
//	         pid      uvarint
//	         tag      string ref
//	         detail   string ref
//	control: kind 0, then a uvarint code: 1 = frame restart (reset string
//	         table and time base), 2 = end of events (the index follows).
//	string ref: uvarint r. r == 0 is the empty string; r <= len(table) is
//	         table entry r-1; r == len(table)+1 introduces a new string —
//	         a uvarint byte length and the bytes follow, and the string is
//	         appended to the table. Any larger r is a corruption error.
//	index:   frame count uvarint, then per frame: ordinal uvarint (index
//	         of the frame's first event), start time varint, byte offset
//	         uvarint (absolute file offset of the frame's first event),
//	         pid bloom 8 bytes LE, digest-before 8 bytes LE (FNV-64a of
//	         every body byte before the frame, restart controls included);
//	         then total events uvarint and total digest 8 bytes LE.
//	trailer: index offset 8 bytes LE, then the 8-byte end magic
//	         "HDIXEND2" — fixed-size, so a reader with random access finds
//	         the index by reading the last 16 bytes (OpenTraceFile).
//
// Both sides build the identical string table in stream order, so
// references never need transmitting ahead of use and decoding needs one
// pass. Deltas are signed because recording order is engine pop order,
// which is monotone in time only within one engine; merged or hand-built
// traces may step backwards.
//
// The end-of-events control plus trailer make truncation and trailing
// garbage detectable exactly. Version 1 (the same event encoding with no
// metadata, frames, index or trailer; last written before PR 10) is
// rejected by name like any other unsupported version.
//
// The decoder reproduces Event values exactly, so rendering a decoded
// trace with WriteText is byte-identical to what WriterSink would have
// written for the same run.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// binaryMagic identifies a binary trace stream; the last byte is the
// format version BinarySink writes.
var binaryMagic = [8]byte{'H', 'D', 'T', 'R', 'A', 'C', 'E', 2}

// indexEndMagic closes a v2 stream; OpenTraceFile seeks it from the end.
var indexEndMagic = [8]byte{'H', 'D', 'I', 'X', 'E', 'N', 'D', '2'}

// Control codes following an escaped kind 0.
const (
	controlRestart = 1 // frame boundary: reset string table and time base
	controlEnd     = 2 // end of events: the index follows
)

// DefaultFrameEvents is the events-per-frame stride used when
// BinarySink.FrameEvents is zero. One frame per spill batch keeps index
// granularity aligned with the recorder's staging buffer.
const DefaultFrameEvents = 4096

// maxBinaryString caps one interned string's byte length — far beyond any
// tag or detail the engine emits — so a corrupt length prefix fails fast
// instead of driving a giant allocation. The same cap bounds the metadata
// block and the frame count.
const maxBinaryString = 1 << 20

// ErrBinaryTrace tags all binary-trace format errors; decode failures wrap
// it, so errors.Is(err, ErrBinaryTrace) distinguishes corruption from I/O.
var ErrBinaryTrace = errors.New("trace: binary format error")

// ErrTrailingData reports bytes following a complete stream — after the
// trailer, where nothing legitimate can live. It wraps ErrBinaryTrace.
var ErrTrailingData = fmt.Errorf("%w: trailing data after end of stream", ErrBinaryTrace)

// fnvOffset/fnvPrime are the FNV-64a parameters; the digest is computed
// incrementally over body bytes as they stream out, so no hashing pass
// re-reads the file.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvSum(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// splitmix64 is the mixer behind the frame pid blooms (and the engine's
// fate streams): two bit positions per pid in a 64-bit filter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func pidBloomBits(pid int) uint64 {
	h := splitmix64(uint64(pid))
	return 1<<(h&63) | 1<<((h>>6)&63)
}

// BinarySink streams spilled batches in the binary format. Create with
// NewBinarySink, attach via NewSpillRecorder or Recorder.SetSink, and call
// Recorder.Flush after the run — Flush finalizes the stream (writes the
// end-of-events marker, the index and the trailer), so it must come after
// the last event. Decode the result with BinaryReader, ReadBinary, or —
// for seeking — OpenTraceFile.
type BinarySink struct {
	// FrameEvents is the events-per-frame stride (0 = DefaultFrameEvents).
	// Set before the first spill.
	FrameEvents int

	w       *bufio.Writer
	wrote   bool
	closed  bool
	meta    *Meta
	strs    map[string]uint64
	lastT   int64
	enc     []byte // per-event encode buffer
	err     error
	off     uint64  // bytes written to the stream so far
	digest  uint64  // FNV-64a over body bytes (events + restarts)
	count   uint64  // events written
	inFrame int     // events in the open frame
	cur     Frame   // the open frame's index record
	frames  []Frame // completed frame records
}

// NewBinarySink wraps w. The header is written lazily with the first
// spill, so constructing a sink on a file never touched by the run leaves
// it empty rather than header-only.
func NewBinarySink(w io.Writer) *BinarySink {
	return &BinarySink{w: bufio.NewWriterSize(w, 1<<16), strs: make(map[string]uint64), digest: fnvOffset}
}

// SetMeta attaches the scenario fingerprint written into the stream
// header. It must be called before the first spill; later calls panic
// (the header is already on the wire).
func (s *BinarySink) SetMeta(m *Meta) {
	if s.wrote {
		panic("trace: SetMeta after the header was written")
	}
	s.meta = m
}

// header writes the magic and metadata block.
func (s *BinarySink) header() error {
	s.wrote = true
	var metaJSON []byte
	if s.meta != nil {
		b, err := json.Marshal(s.meta)
		if err != nil {
			return fmt.Errorf("trace: encoding metadata: %w", err)
		}
		metaJSON = b
	}
	hdr := append([]byte{}, binaryMagic[:]...)
	hdr = binary.AppendUvarint(hdr, uint64(len(metaJSON)))
	hdr = append(hdr, metaJSON...)
	if _, err := s.w.Write(hdr); err != nil {
		return err
	}
	s.off = uint64(len(hdr))
	return nil
}

// writeBody writes p as body bytes: counted and digested.
func (s *BinarySink) writeBody(p []byte) error {
	if _, err := s.w.Write(p); err != nil {
		return err
	}
	s.off += uint64(len(p))
	s.digest = fnvSum(s.digest, p)
	return nil
}

// Spill implements Sink.
func (s *BinarySink) Spill(batch []Event) error {
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
			if err := s.closeFrame(); err != nil {
				return err
			}
		}
	}
	return nil
}

// closeFrame records the open frame in the index and writes the restart
// control that resets the decoder's string table and time base, making
// the next frame self-contained.
func (s *BinarySink) closeFrame() error {
	s.frames = append(s.frames, s.cur)
	s.inFrame = 0
	s.lastT = 0
	clear(s.strs)
	return s.writeBody([]byte{0, controlRestart})
}

func (s *BinarySink) appendString(enc []byte, v string) []byte {
	if v == "" {
		return append(enc, 0)
	}
	if ref, ok := s.strs[v]; ok {
		return binary.AppendUvarint(enc, ref)
	}
	ref := uint64(len(s.strs)) + 1
	s.strs[v] = ref
	enc = binary.AppendUvarint(enc, ref)
	enc = binary.AppendUvarint(enc, uint64(len(v)))
	return append(enc, v...)
}

// Flush implements Flusher: it finalizes the stream — end-of-events
// control, index, trailer — and flushes the underlying writer. The first
// call finalizes; later calls only re-flush (so Recorder.Flush stays
// idempotent), and spilling after finalization is an error.
func (s *BinarySink) Flush() error {
	if s.wrote && !s.closed {
		s.closed = true
		if s.inFrame > 0 {
			s.frames = append(s.frames, s.cur)
		}
		// The end control is body-positioned but deliberately outside the
		// digest: digests cover event bytes, and every frame's
		// DigestBefore precedes it anyway.
		if _, err := s.w.Write([]byte{0, controlEnd}); err != nil {
			return err
		}
		s.off += 2
		indexOff := s.off
		s.enc = s.enc[:0]
		s.enc = binary.AppendUvarint(s.enc, uint64(len(s.frames)))
		for _, f := range s.frames {
			s.enc = binary.AppendUvarint(s.enc, f.Ordinal)
			s.enc = binary.AppendVarint(s.enc, f.Start)
			s.enc = binary.AppendUvarint(s.enc, f.Offset)
			s.enc = binary.LittleEndian.AppendUint64(s.enc, f.PIDBloom)
			s.enc = binary.LittleEndian.AppendUint64(s.enc, f.DigestBefore)
		}
		s.enc = binary.AppendUvarint(s.enc, s.count)
		s.enc = binary.LittleEndian.AppendUint64(s.enc, s.digest)
		s.enc = binary.LittleEndian.AppendUint64(s.enc, indexOff)
		s.enc = append(s.enc, indexEndMagic[:]...)
		if _, err := s.w.Write(s.enc); err != nil {
			return err
		}
	}
	return s.w.Flush()
}

// ReadBinary decodes a whole binary trace into memory. Large traces should
// stream through BinaryReader.Next instead.
func ReadBinary(r io.Reader) ([]Event, error) {
	d, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []Event
	for {
		e, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
