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
	"slices"
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
// BinarySink.FrameEvents is zero, whatever the spill batch size. It sets
// the grain of random access: tracediff and point queries decode one
// frame at a time.
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
// NewBinarySink, attach via NewSpillRecorder, and call
// Recorder.Flush after the run — Flush finalizes the stream (writes the
// end-of-events marker, the index and the trailer), so it must come after
// the last event. Decode the result with BinaryReader, ReadBinary, or —
// for seeking — OpenTraceFile.
type BinarySink struct {
	// FrameEvents is the events-per-frame stride (0 = DefaultFrameEvents).
	// Set before the first spill.
	FrameEvents int

	w      *bufio.Writer
	wrote  bool
	closed bool
	meta   *Meta
	// The open frame's string table: frameStrs maps each string it holds
	// to its wire ref. wire caches that lookup by staged ref for the
	// table owner, touched lists the refs it holds, and lastStr is the
	// staged ref appendRef referenced last (0 = none), lastRef its wire
	// ref.
	frameStrs map[string]uint64
	wire      []uint64
	owner     *strTable
	touched   []Ref
	lastStr   Ref
	lastRef   uint64
	lastT     int64
	enc       []byte  // encode buffer: one frame slice (spillStaged) or the index
	off       uint64  // bytes written to the stream so far
	digest    uint64  // FNV-64a over body bytes (events + restarts)
	count     uint64  // events written
	inFrame   int     // events in the open frame
	cur       Frame   // the open frame's index record
	frames    []Frame // completed frame records
	// Spill stages its events over a table of the sink's own.
	tab   strTable
	stage []staged
}

// NewBinarySink wraps w. The header is written lazily with the first
// spill, so constructing a sink on a file never touched by the run leaves
// it empty rather than header-only.
func NewBinarySink(w io.Writer) *BinarySink {
	return &BinarySink{w: bufio.NewWriterSize(w, 1<<16), frameStrs: make(map[string]uint64), digest: fnvOffset}
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

// Spill implements Sink: it stages the batch over the sink's own string
// table and encodes it as spillStaged does a recorder's batch. A Recorder
// over a BinarySink hands its staged batches to spillStaged directly.
func (s *BinarySink) Spill(batch []Event) error {
	s.stage = slices.Grow(s.stage[:0], len(batch))[:len(batch)]
	for i := range batch {
		s.tab.stage(&s.stage[i], &batch[i])
	}
	v := s.tab.view()
	return s.spillStaged(s.stage, &v)
}

// spillStaged encodes a batch of staged records, whose refs are into tab,
// a frame slice at a time: the records from here to the open frame's end
// (or the batch's) go into one buffer, with the time base, the frame's
// pid bloom and the running digest in locals, and reach the writer in one
// write — the restart control of a frame the slice fills included. An
// ordinary record, the shape NextBatch's loop decodes — kind and time
// delta of one byte each, a pid below 2²¹, the tag appendRef referenced
// last with a one-byte wire ref, no detail — is written by one append;
// any other record goes field by field. Each record is digested as soon
// as it is appended, so the digest's byte-serial multiply chain overlaps
// the encoding instead of re-reading the buffer, and s.off and s.digest
// take the slice only once it is written. A bloom that is all ones skips
// the per-event bits: OR-ing more into it cannot change it. The bytes,
// the index and the digests are those of encoding and writing the
// expanded events one by one.
func (s *BinarySink) spillStaged(batch []staged, tab *tableView) error {
	if s.closed {
		return fmt.Errorf("trace: spill after the stream was finalized")
	}
	if !s.wrote {
		if err := s.header(); err != nil {
			return err
		}
	}
	if tab.owner != s.owner {
		s.forgetWire()
		s.owner = tab.owner
	}
	if n := len(tab.strs) + 1; len(s.wire) < n {
		s.wire = append(s.wire, make([]uint64, n-len(s.wire))...)
	}
	stride := s.FrameEvents
	if stride <= 0 {
		stride = DefaultFrameEvents
	}
	for len(batch) > 0 {
		if s.inFrame == 0 {
			s.cur = Frame{Ordinal: s.count, Start: batch[0].time, Offset: s.off, DigestBefore: s.digest}
		}
		chunk := batch[:min(len(batch), stride-s.inFrame)]
		batch = batch[len(chunk):]
		enc, lastT, bloom, h := s.enc[:0], s.lastT, s.cur.PIDBloom, s.digest
		for i := range chunk {
			x := &chunk[i]
			dt := x.time - lastT
			lastT = x.time
			kind, zz, pid := uint64(x.kind), uint64(dt<<1^dt>>63), uint64(x.pid)
			if kind|zz < 0x80 && pid < 1<<21 && x.tag == s.lastStr && s.lastRef < 0x80 && x.detail == 0 {
				h = (h ^ kind) * fnvPrime
				h = (h ^ zz) * fnvPrime
				k, z, ref := byte(kind), byte(zz), byte(s.lastRef)
				switch {
				case pid < 1<<7:
					enc = append(enc, k, z, byte(pid), ref, 0)
					h = (h ^ pid) * fnvPrime
				case pid < 1<<14:
					p0, p1 := byte(pid)|0x80, byte(pid>>7)
					enc = append(enc, k, z, p0, p1, ref, 0)
					h = (h ^ uint64(p0)) * fnvPrime
					h = (h ^ uint64(p1)) * fnvPrime
				default:
					p0, p1, p2 := byte(pid)|0x80, byte(pid>>7)|0x80, byte(pid>>14)
					enc = append(enc, k, z, p0, p1, p2, ref, 0)
					h = (h ^ uint64(p0)) * fnvPrime
					h = (h ^ uint64(p1)) * fnvPrime
					h = (h ^ uint64(p2)) * fnvPrime
				}
				h = (h ^ uint64(ref)) * fnvPrime
				h *= fnvPrime // the empty detail's 0 byte
			} else {
				if x.kind == wideKind {
					w := &tab.wides[x.pid]
					kind, pid = uint64(w.kind), uint64(w.pid)
				}
				n := len(enc)
				enc = binary.AppendUvarint(enc, kind)
				enc = binary.AppendUvarint(enc, zz)
				enc = binary.AppendUvarint(enc, pid)
				enc = s.appendRef(enc, x.tag, tab)
				enc = s.appendRef(enc, x.detail, tab)
				h = fnvSum(h, enc[n:])
			}
			if bloom != ^uint64(0) {
				bloom |= pidBloomBits(int(pid))
			}
		}
		s.lastT, s.cur.PIDBloom = lastT, bloom
		s.count += uint64(len(chunk))
		s.inFrame += len(chunk)
		full := s.inFrame == stride
		if full {
			enc = append(enc, 0, controlRestart)
			h = fnvSum(h, enc[len(enc)-2:])
		}
		s.enc = enc
		if _, err := s.w.Write(enc); err != nil {
			return err
		}
		s.off += uint64(len(enc))
		s.digest = h
		if full {
			s.closeFrame()
		}
	}
	return nil
}

// closeFrame records the open frame in the index once spillStaged has
// written the restart control that ends it, and resets the encoder's
// string table and time base as that control resets the decoder's,
// making the next frame self-contained.
func (s *BinarySink) closeFrame() {
	s.frames = append(s.frames, s.cur)
	s.inFrame = 0
	s.lastT = 0
	clear(s.frameStrs)
	s.forgetWire()
}

// forgetWire empties the wire-ref cache: at a frame's end, whose table it
// caches, and when batches start coming from another string table, whose
// refs mean other strings. The frame's own table, frameStrs, is keyed by
// string and stays valid across the switch.
func (s *BinarySink) forgetWire() {
	for _, r := range s.touched {
		s.wire[r] = 0
	}
	s.touched = s.touched[:0]
	s.lastStr, s.lastRef = 0, 0
}

// appendRef appends the wire ref of the string r names in tab,
// introducing the string into the frame's table on first use. The ref it
// referenced last is checked first, then the cache by staged ref, and
// only a ref new to the frame looks its string up: a delivery wave is
// thousands of copies of one tag, and a frame holds few strings. The
// checks are shortcuts to the wire ref the frame's table holds, and
// closeFrame clears them with the table, so the bytes are the same.
func (s *BinarySink) appendRef(enc []byte, r Ref, tab *tableView) []byte {
	if r == 0 {
		return append(enc, 0)
	}
	if r == s.lastStr {
		return binary.AppendUvarint(enc, s.lastRef)
	}
	ref := s.wire[r]
	if ref == 0 {
		v := tab.strs[r-1]
		var ok bool
		if ref, ok = s.frameStrs[v]; !ok {
			ref = uint64(len(s.frameStrs)) + 1
			s.frameStrs[v] = ref
			enc = binary.AppendUvarint(enc, ref)
			enc = binary.AppendUvarint(enc, uint64(len(v)))
			enc = append(enc, v...)
		} else {
			enc = binary.AppendUvarint(enc, ref)
		}
		s.wire[r] = ref
		s.touched = append(s.touched, r)
		s.lastStr, s.lastRef = r, ref
		return enc
	}
	s.lastStr, s.lastRef = r, ref
	return binary.AppendUvarint(enc, ref)
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
// stream through BinaryReader.NextBatch instead, or DrainBatches over it.
//
//detlint:ignore unreached test support: trace, sim and hruntime tests decode whole traces with it
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
