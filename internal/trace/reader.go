package trace

// The decoding half of the binary format (binary.go documents the layout).
//
// Decoder contract. A BinaryReader owns a byte window over its source and
// decodes records out of it by slice index — no per-byte call, no
// interface. The window is refilled only at record boundaries: a record
// the window holds in part is rescanned from its first byte once more
// bytes are in, and nothing about the reader changes until a record has
// been scanned whole, so a refill can never tear an event. Every offset
// the reader reports or checks is absolute in the stream (window base +
// position). Every failure leaves through stop, which makes it sticky and
// is the one place that decides between a format error (wraps
// ErrBinaryTrace) and the source's own read error (returned as it came).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// windowSize is the window a streaming reader starts with (and, barring a
// single record larger than it, keeps): the size of the bufio.Reader it
// replaced, so a replay's memory does not move.
const windowSize = 1 << 16

// window is a read buffer that knows its place in the stream. Unread bytes
// are buf[pos:end]; buf[0] sits at stream offset base.
type window struct {
	src  io.Reader
	buf  []byte
	pos  int
	end  int
	base uint64
	// err is what src returned when it stopped yielding bytes, io.EOF
	// included. It is held back until the bytes read before it are used up.
	err error
	// failed records that a caller ran out of bytes on an err other than
	// io.EOF: from then on the stream's failure is the source's, whatever
	// the parser that hit it made of the missing bytes.
	failed bool
}

// offset is the stream offset of the next unread byte.
func (w *window) offset() uint64 { return w.base + uint64(w.pos) }

// fill slides the unread bytes to the front of the buffer and reads until
// at least need of them are there, growing the buffer for a record larger
// than it. It reports whether they are; if not, w.err says why.
func (w *window) fill(need int) bool {
	if w.pos > 0 {
		w.end = copy(w.buf, w.buf[w.pos:w.end])
		w.base += uint64(w.pos)
		w.pos = 0
	}
	if need > len(w.buf) {
		w.buf = append(w.buf[:w.end], make([]byte, need-w.end)...)
	}
	for idle := 0; w.end < need && w.err == nil; {
		n, err := w.src.Read(w.buf[w.end:])
		w.end += n
		w.err = err
		if n == 0 && err == nil {
			if idle++; idle == 100 {
				w.err = io.ErrNoProgress
			}
		}
	}
	if w.end < need {
		w.failed = w.failed || w.err != io.EOF
		return false
	}
	return true
}

// ReadByte and Read serve the parts of a stream that are read once —
// header, index, trailer — to code written against io.Reader.
func (w *window) ReadByte() (byte, error) {
	if w.pos == w.end && !w.fill(1) {
		return 0, w.err
	}
	c := w.buf[w.pos]
	w.pos++
	return c, nil
}

func (w *window) Read(p []byte) (int, error) {
	if w.pos == w.end && !w.fill(1) {
		return 0, w.err
	}
	n := copy(p, w.buf[w.pos:w.end])
	w.pos += n
	return n, nil
}

// Outcomes of a varint scan that did not produce a value, returned in
// place of the position after it (which is always positive).
const (
	varintShort    = 0  // the window ends inside the varint
	varintOverflow = -1 // it does not fit 64 bits
)

// errVarintOverflow carries encoding/binary's text for the same condition.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// uvarint decodes the uvarint at b[p:] and returns it with the position
// after it, accepting exactly what binary.ReadUvarint accepts.
func uvarint(b []byte, p int) (uint64, int) {
	if p < len(b) {
		if c := b[p]; c < 0x80 {
			return uint64(c), p + 1
		}
	}
	return uvarintMulti(b, p)
}

// uvarintMulti is kept out of line so that uvarint, one compare and one
// load for the single-byte values that make up nearly all of a trace,
// inlines into the decoder.
//
//go:noinline
func uvarintMulti(b []byte, p int) (uint64, int) {
	if p+3 <= len(b) && b[p] >= 0x80 {
		// Two and three bytes — a pid below 2^21 — without the loop.
		c0, c1, c2 := uint64(b[p]), uint64(b[p+1]), uint64(b[p+2])
		if c1 < 0x80 {
			return c0&0x7f | c1<<7, p + 2
		}
		if c2 < 0x80 {
			return c0&0x7f | (c1&0x7f)<<7 | c2<<14, p + 3
		}
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if p+i >= len(b) {
			return 0, varintShort
		}
		c := b[p+i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, varintOverflow
			}
			return x | uint64(c)<<s, p + i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, varintOverflow
}

// BinaryReader decodes a binary trace stream, holding only its window and
// the string table — a trace of any length decodes in memory proportional
// to its distinct tags/details, not its events. It implements EventSource;
// NextBatch is the same decoder filling a caller's slab.
type BinaryReader struct {
	w       window
	meta    *Meta
	index   *Index
	strs    []string
	lastT   int64
	counted uint64
	// err ends the stream once set: io.EOF after a clean end, else the
	// first failure. Every later call returns it again.
	err error
	// bounded marks a reader over a frame section cut out of a larger
	// file: the section ends between events with no end-of-events marker,
	// so a clean EOF there is the legitimate end.
	bounded bool
}

var _ EventSource = (*BinaryReader)(nil)

// NewBinaryReader validates the stream header and returns a reader
// positioned at the first event.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	return newBinaryReader(r, windowSize)
}

func newBinaryReader(r io.Reader, size int) (*BinaryReader, error) {
	d := &BinaryReader{w: window{src: r, buf: make([]byte, size)}}
	var magic [8]byte
	if _, err := io.ReadFull(&d.w, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w: stream shorter than header", ErrBinaryTrace)
		}
		return nil, d.stop(err)
	}
	if magic != binaryMagic {
		if bytes.Equal(magic[:7], binaryMagic[:7]) {
			return nil, fmt.Errorf("%w: unsupported version %d", ErrBinaryTrace, magic[7])
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrBinaryTrace, magic[:])
	}
	size64, err := binary.ReadUvarint(&d.w)
	if err != nil {
		return nil, d.stop(corrupt("metadata length", err))
	}
	if size64 > maxBinaryString {
		return nil, fmt.Errorf("%w: metadata length %d exceeds limit", ErrBinaryTrace, size64)
	}
	if size64 > 0 {
		buf := make([]byte, size64)
		if _, err := io.ReadFull(&d.w, buf); err != nil {
			return nil, d.stop(corrupt("metadata", err))
		}
		m := new(Meta)
		if err := json.Unmarshal(buf, m); err != nil {
			return nil, fmt.Errorf("%w: metadata: %v", ErrBinaryTrace, err)
		}
		d.meta = m
	}
	return d, nil
}

// Meta returns the stream's scenario fingerprint, or nil for a stream
// written without one.
func (d *BinaryReader) Meta() *Meta { return d.meta }

// Index returns the stream's frame index. It is available only after
// Next returned io.EOF (the index trails the events); frame sections have
// none.
func (d *BinaryReader) Index() *Index { return d.index }

// Next implements EventSource: it returns the next event, io.EOF at a
// clean end of stream, and an error wrapping ErrBinaryTrace for any
// corruption — truncation mid-event, an invalid kind, a stream cut off
// before its end-of-events marker, or trailing bytes after the
// trailer (ErrTrailingData). A read error of the source other than io.EOF
// is returned as the source gave it, never wrapped in ErrBinaryTrace. The
// first error ends the stream: every later call returns it again.
func (d *BinaryReader) Next() (Event, error) {
	var e Event
	err := d.next(&e)
	return e, err
}

// NextBatch decodes up to len(dst) events into dst and returns how many.
// It returns n > 0 and a nil error, or 0 and the error Next would return:
// events decoded ahead of a failure are delivered first and the failure
// on the call after. dst is the caller's; the reader keeps no reference to
// it, so a caller that reuses one slab must be done with a batch before
// asking for the next. Concatenated, the batches are exactly the sequence
// Next yields.
func (d *BinaryReader) NextBatch(dst []Event) (int, error) {
	for n := range dst {
		if err := d.next(&dst[n]); err != nil {
			if n == 0 {
				return 0, err
			}
			return n, nil
		}
	}
	return len(dst), nil
}

// next decodes one event into *e, which it leaves untouched on error. A
// record is scanned from the window without changing the reader and
// committed — window position, time base, string table — only once it is
// whole; a scan the window cuts short refills and starts over.
//
// Each field reads its varint's one-byte case in line and leaves the rest
// to uvarintMulti: the compiler will not inline a helper that holds both,
// and five calls per event were a third of the decode. The gotos keep the
// two rare exits — refill, malformed string — out of the field sequence.
func (d *BinaryReader) next(e *Event) error {
	if d.err != nil {
		return d.err
	}
	w := &d.w
	for {
		var (
			b                 = w.buf[:w.end]
			start, p          = w.pos, w.pos
			known             = uint64(len(d.strs))
			kind, zz, pid     uint64
			tagRef, detailRef uint64
			tagNew, detailNew []byte
			field             string // the field a stalled scan was reading
			need              int    // end in b of a string body the window cuts off
			err               error
		)

		if single(b, p) {
			kind, p = uint64(b[p]), p+1
		} else if kind, p = uvarintMulti(b, p); p <= 0 {
			field = "event kind"
			goto stalled
		}
		if kind == 0 {
			var code uint64
			if code, p = uvarint(b, p); p <= 0 {
				field = "control code"
				goto stalled
			}
			w.pos = p
			switch code {
			case controlRestart:
				d.strs = d.strs[:0]
				d.lastT = 0
				continue
			case controlEnd:
				if !d.bounded {
					if err := d.readIndexAndTrailer(); err != nil {
						return d.stop(err)
					}
				}
				return d.stop(io.EOF)
			default:
				return d.stop(fmt.Errorf("%w: unknown control code %d", ErrBinaryTrace, code))
			}
		}
		if kind > uint64(KindTimerDrop) {
			return d.stop(fmt.Errorf("%w: invalid event kind %d at offset %d", ErrBinaryTrace, kind, w.base+uint64(p)))
		}
		if single(b, p) {
			zz, p = uint64(b[p]), p+1
		} else if zz, p = uvarintMulti(b, p); p <= 0 {
			field = "time delta"
			goto stalled
		}
		if single(b, p) {
			pid, p = uint64(b[p]), p+1
		} else if p+1 < len(b) && b[p+1] < 0x80 {
			// The one field that is routinely two bytes: any population
			// above 128 puts most pids here.
			pid, p = uint64(b[p]&0x7f)|uint64(b[p+1])<<7, p+2
		} else if pid, p = uvarintMulti(b, p); p <= 0 {
			field = "pid"
			goto stalled
		}
		field = "tag"
		if single(b, p) {
			tagRef, p = uint64(b[p]), p+1
		} else if tagRef, p = uvarintMulti(b, p); p <= 0 {
			goto stalled
		}
		if tagRef > known {
			if tagNew, p, need, err = scanNewString(b, p, tagRef, known); p <= 0 {
				goto stalled
			}
			known++ // the detail may refer to the string just introduced
		}
		field = "detail"
		if single(b, p) {
			detailRef, p = uint64(b[p]), p+1
		} else if detailRef, p = uvarintMulti(b, p); p <= 0 {
			goto stalled
		}
		if detailRef > known {
			if detailNew, p, need, err = scanNewString(b, p, detailRef, known); p <= 0 {
				goto stalled
			}
		}

		w.pos = p
		d.lastT += int64(zz>>1) ^ -int64(zz&1) // zigzag
		d.counted++
		e.Time, e.Kind, e.PID = d.lastT, Kind(kind), int(pid)
		e.MsgTag = d.intern(tagRef, tagNew)
		e.Detail = d.intern(detailRef, detailNew)
		return nil

	stalled:
		// p is the outcome of the scan that stopped.
		switch p {
		case stringBad:
			return d.stop(corrupt(field, err))
		case varintOverflow:
			return d.stop(corrupt(field, errVarintOverflow))
		}
		// A cut-off varint needs one byte more than the window has.
		if err := d.refill(field, max(need, len(b)+1)-start); err != nil {
			return err
		}
	}
}

// single reports whether the varint at b[p] is there and one byte long.
func single(b []byte, p int) bool { return p < len(b) && b[p] < 0x80 }

// stringBad is scanNewString's failure outcome beside the two varint
// ones: the reference is malformed and err says how.
const stringBad = -2

// scanNewString scans what follows a string reference ref that is not in
// the table of known strings: nothing valid unless ref is the next free
// slot, then a length and that many bytes. It returns those bytes and the
// position after them. On failure the position is a varint outcome or
// stringBad; when it is the bytes themselves the window cuts off, need is
// where in b they would end.
func scanNewString(b []byte, p int, ref, known uint64) (body []byte, np, need int, err error) {
	if ref > known+1 {
		return nil, stringBad, 0, fmt.Errorf("string ref %d beyond table size %d", ref, known)
	}
	size, p := uvarint(b, p)
	if p <= 0 {
		return nil, p, 0, nil
	}
	if size > maxBinaryString {
		return nil, stringBad, 0, fmt.Errorf("string length %d exceeds limit", size)
	}
	if uint64(len(b)-p) < size {
		return nil, varintShort, p + int(size), nil
	}
	return b[p : p+int(size)], p + int(size), 0, nil
}

// intern resolves a scanned string reference, adding a new string to the
// table. This copy out of the window is the decoder's only steady-state
// allocation: one per distinct string per frame.
func (d *BinaryReader) intern(ref uint64, body []byte) string {
	switch {
	case ref == 0:
		return ""
	case ref <= uint64(len(d.strs)):
		return d.strs[ref-1]
	}
	s := string(body)
	d.strs = append(d.strs, s)
	return s
}

// refill is what a scan of field that ran off the window asks for: need
// bytes counted from the record's first. A nil return means rescan; if
// the source cannot supply them the stream ends, named by the field it
// ended in.
func (d *BinaryReader) refill(field string, need int) error {
	if d.w.fill(need) {
		return nil
	}
	if d.w.err == io.EOF && d.w.end == 0 {
		// The source ended between records.
		if d.bounded {
			return d.stop(io.EOF)
		}
		return d.stop(fmt.Errorf("%w: stream ends without an end-of-events marker", ErrBinaryTrace))
	}
	return d.stop(corrupt(field, d.w.err))
}

// stop ends the stream with err and returns what the caller should: err,
// unless the window ran dry on a read error of the source — then that
// error, unwrapped, because the bytes a parser found missing were never
// the format's fault.
func (d *BinaryReader) stop(err error) error {
	if d.w.failed {
		err = d.w.err
	}
	d.err = err
	return err
}

// corrupt is the format error for a field that could not be read: a
// stream that ends inside it is truncated, anything else is named.
func corrupt(field string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: stream truncated reading %s", ErrBinaryTrace, field)
	}
	return fmt.Errorf("%w: %s: %v", ErrBinaryTrace, field, err)
}

// readIndexAndTrailer parses the index that follows the end-of-events
// control, validates it against the events just decoded, and requires the
// stream to end exactly at the trailer.
func (d *BinaryReader) readIndexAndTrailer() error {
	indexStart := d.w.offset()
	ix, err := parseIndex(&d.w)
	if err != nil {
		return err
	}
	if ix.TotalEvents != d.counted {
		return fmt.Errorf("%w: index records %d events but the stream holds %d", ErrBinaryTrace, ix.TotalEvents, d.counted)
	}
	var trailer [16]byte
	if _, err := io.ReadFull(&d.w, trailer[:]); err != nil {
		return corrupt("trailer", err)
	}
	if !bytes.Equal(trailer[8:], indexEndMagic[:]) {
		return fmt.Errorf("%w: bad end magic %q", ErrBinaryTrace, trailer[8:])
	}
	if off := binary.LittleEndian.Uint64(trailer[:8]); off != indexStart {
		return fmt.Errorf("%w: trailer points the index at offset %d, found at %d", ErrBinaryTrace, off, indexStart)
	}
	if _, err := d.w.ReadByte(); err != io.EOF {
		return ErrTrailingData
	}
	d.index = ix
	return nil
}
