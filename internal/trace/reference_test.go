package trace

// The decoder this package shipped until the window decoder replaced it,
// moved here unchanged. The differential tests and FuzzBinaryReader hold
// BinaryReader to its event sequence, error text and index on every
// input.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// byteCounter counts consumed bytes so the reader can cross-check the
// trailer's index offset and position frame errors.
type byteCounter struct {
	r *bufio.Reader
	n uint64
}

func (b *byteCounter) ReadByte() (byte, error) {
	c, err := b.r.ReadByte()
	if err == nil {
		b.n++
	}
	return c, err
}

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += uint64(n)
	return n, err
}

// refReader is the byte-at-a-time decoder BinaryReader replaced, kept
// verbatim as the differential oracle: one binary.ReadUvarint per field
// through a counting io.ByteReader over a bufio.Reader.
type refReader struct {
	r       *byteCounter
	meta    *Meta
	index   *Index
	strs    []string
	lastT   int64
	counted uint64
	done    bool
	// bounded marks a reader over a frame section cut out of a larger
	// file: the section ends between events with no end-of-events marker,
	// so a clean EOF there is the legitimate end.
	bounded bool
}

// newRefReader is the old NewBinaryReader, but for the bufio.Reader's
// size (it had 64 KiB): the tests build readers by the hundred thousand.
func newRefReader(r io.Reader) (*refReader, error) {
	d := &refReader{r: &byteCounter{r: bufio.NewReaderSize(r, 1<<12)}}
	var magic [8]byte
	if _, err := io.ReadFull(d.r, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream shorter than header", ErrBinaryTrace)
		}
		return nil, err
	}
	if magic != binaryMagic {
		if bytes.Equal(magic[:7], binaryMagic[:7]) {
			return nil, fmt.Errorf("%w: unsupported version %d", ErrBinaryTrace, magic[7])
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrBinaryTrace, magic[:])
	}
	size, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, d.corrupt("metadata length", err)
	}
	if size > maxBinaryString {
		return nil, fmt.Errorf("%w: metadata length %d exceeds limit", ErrBinaryTrace, size)
	}
	if size > 0 {
		buf := make([]byte, size)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return nil, d.corrupt("metadata", err)
		}
		m := new(Meta)
		if err := json.Unmarshal(buf, m); err != nil {
			return nil, fmt.Errorf("%w: metadata: %v", ErrBinaryTrace, err)
		}
		d.meta = m
	}
	return d, nil
}

func (d *refReader) Next() (Event, error) {
	for {
		if d.done {
			return Event{}, io.EOF
		}
		kind, err := binary.ReadUvarint(d.r)
		if err != nil {
			if err == io.EOF {
				if d.bounded {
					d.done = true
					return Event{}, io.EOF // clean boundary between events
				}
				return Event{}, fmt.Errorf("%w: stream ends without an end-of-events marker", ErrBinaryTrace)
			}
			return Event{}, d.corrupt("event kind", err)
		}
		if kind == 0 {
			code, err := binary.ReadUvarint(d.r)
			if err != nil {
				return Event{}, d.corrupt("control code", err)
			}
			switch code {
			case controlRestart:
				d.strs = d.strs[:0]
				d.lastT = 0
				continue
			case controlEnd:
				d.done = true
				if d.bounded {
					return Event{}, io.EOF
				}
				if err := d.readIndexAndTrailer(); err != nil {
					return Event{}, err
				}
				return Event{}, io.EOF
			default:
				return Event{}, fmt.Errorf("%w: unknown control code %d", ErrBinaryTrace, code)
			}
		}
		if kind > uint64(KindTimerDrop) {
			return Event{}, fmt.Errorf("%w: invalid event kind %d at offset %d", ErrBinaryTrace, kind, d.r.n)
		}
		dt, err := binary.ReadVarint(d.r)
		if err != nil {
			return Event{}, d.corrupt("time delta", err)
		}
		d.lastT += dt
		pid, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Event{}, d.corrupt("pid", err)
		}
		tag, err := d.getString()
		if err != nil {
			return Event{}, d.corrupt("tag", err)
		}
		detail, err := d.getString()
		if err != nil {
			return Event{}, d.corrupt("detail", err)
		}
		d.counted++
		return Event{Time: d.lastT, Kind: Kind(kind), PID: int(pid), MsgTag: tag, Detail: detail}, nil
	}
}

// readIndexAndTrailer parses the index that follows the end-of-events
// control, validates it against the events just decoded, and requires the
// stream to end exactly at the trailer.
func (d *refReader) readIndexAndTrailer() error {
	indexStart := d.r.n
	ix, err := parseIndex(d.r)
	if err != nil {
		return err
	}
	if ix.TotalEvents != d.counted {
		return fmt.Errorf("%w: index records %d events but the stream holds %d", ErrBinaryTrace, ix.TotalEvents, d.counted)
	}
	var trailer [16]byte
	if _, err := io.ReadFull(d.r, trailer[:]); err != nil {
		return d.corrupt("trailer", err)
	}
	if !bytes.Equal(trailer[8:], indexEndMagic[:]) {
		return fmt.Errorf("%w: bad end magic %q", ErrBinaryTrace, trailer[8:])
	}
	if off := binary.LittleEndian.Uint64(trailer[:8]); off != indexStart {
		return fmt.Errorf("%w: trailer points the index at offset %d, found at %d", ErrBinaryTrace, off, indexStart)
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return ErrTrailingData
	}
	d.index = ix
	return nil
}

func (d *refReader) getString() (string, error) {
	ref, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", err
	}
	switch {
	case ref == 0:
		return "", nil
	case ref <= uint64(len(d.strs)):
		return d.strs[ref-1], nil
	case ref == uint64(len(d.strs))+1:
		size, err := binary.ReadUvarint(d.r)
		if err != nil {
			return "", err
		}
		if size > maxBinaryString {
			return "", fmt.Errorf("string length %d exceeds limit", size)
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return "", err
		}
		s := string(buf)
		d.strs = append(d.strs, s)
		return s, nil
	default:
		return "", fmt.Errorf("string ref %d beyond table size %d", ref, len(d.strs))
	}
}

func (d *refReader) corrupt(field string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: stream truncated reading %s", ErrBinaryTrace, field)
	}
	if errors.Is(err, ErrBinaryTrace) {
		return err
	}
	return fmt.Errorf("%w: %s: %v", ErrBinaryTrace, field, err)
}
