package trace

// The footer index of a v2 stream: one record per frame, enough to seek
// by virtual time or byte offset without scanning the body, to skip
// frames that cannot mention a pid (a 64-bit bloom per frame), and to
// binary-search the first divergence between two traces (the cumulative
// digest-before of each frame: two traces agree on every body byte before
// frame k iff their DigestBefore[k] agree — what cmd/tracediff exploits).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Frame is one index record: a run of FrameEvents consecutive events that
// decodes from Offset with fresh decoder state.
type Frame struct {
	// Ordinal is the index of the frame's first event in the stream.
	Ordinal uint64
	// Start is the virtual time of the frame's first event.
	Start int64
	// Offset is the absolute byte offset of the frame's first event.
	Offset uint64
	// PIDBloom is a 64-bit bloom filter (two bits per pid) over the
	// frame's event PIDs: a clear MayHavePID skips the frame for sure.
	PIDBloom uint64
	// DigestBefore is the FNV-64a digest of every body byte before the
	// frame (restart controls included). Frame 0 carries the digest's
	// offset basis.
	DigestBefore uint64
}

// MayHavePID reports whether the frame may contain events for pid; false
// is definitive, true may be a bloom collision.
func (f Frame) MayHavePID(pid int) bool {
	b := pidBloomBits(pid)
	return f.PIDBloom&b == b
}

// Index is a v2 stream's frame directory.
type Index struct {
	Frames []Frame
	// TotalEvents counts every event in the body.
	TotalEvents uint64
	// TotalDigest is the FNV-64a digest of the whole body (events and
	// restart controls; the end-of-events control is excluded).
	TotalDigest uint64
}

// FrameForTime returns the index of the last frame starting at or before
// t — for traces recorded in engine pop order (monotone time), the frame
// where events at time t begin. It returns 0 when every frame starts
// later, and -1 for an empty index.
func (ix *Index) FrameForTime(t int64) int {
	i := sort.Search(len(ix.Frames), func(i int) bool { return ix.Frames[i].Start > t })
	if i == 0 {
		if len(ix.Frames) == 0 {
			return -1
		}
		return 0
	}
	return i - 1
}

// parseIndex decodes the index section (frame directory through total
// digest, trailer excluded) and validates its internal consistency.
func parseIndex(r io.Reader) (*Index, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		bb := bufio.NewReader(r)
		br = bb
		r = bb
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, indexCorrupt("frame count", err)
	}
	if count > maxBinaryString {
		return nil, fmt.Errorf("%w: frame count %d exceeds limit", ErrBinaryTrace, count)
	}
	ix := &Index{Frames: make([]Frame, count)}
	var fixed [16]byte
	for i := range ix.Frames {
		f := &ix.Frames[i]
		if f.Ordinal, err = binary.ReadUvarint(br); err != nil {
			return nil, indexCorrupt("frame ordinal", err)
		}
		if f.Start, err = binary.ReadVarint(br); err != nil {
			return nil, indexCorrupt("frame start time", err)
		}
		if f.Offset, err = binary.ReadUvarint(br); err != nil {
			return nil, indexCorrupt("frame offset", err)
		}
		if _, err = io.ReadFull(r, fixed[:]); err != nil {
			return nil, indexCorrupt("frame bloom/digest", err)
		}
		f.PIDBloom = binary.LittleEndian.Uint64(fixed[:8])
		f.DigestBefore = binary.LittleEndian.Uint64(fixed[8:])
		if i > 0 {
			prev := ix.Frames[i-1]
			if f.Ordinal <= prev.Ordinal || f.Offset <= prev.Offset {
				return nil, fmt.Errorf("%w: frame %d not after its predecessor (ordinal %d≤%d or offset %d≤%d)",
					ErrBinaryTrace, i, f.Ordinal, prev.Ordinal, f.Offset, prev.Offset)
			}
		}
	}
	if ix.TotalEvents, err = binary.ReadUvarint(br); err != nil {
		return nil, indexCorrupt("total events", err)
	}
	if _, err = io.ReadFull(r, fixed[:8]); err != nil {
		return nil, indexCorrupt("total digest", err)
	}
	ix.TotalDigest = binary.LittleEndian.Uint64(fixed[:8])
	for _, f := range ix.Frames {
		if f.Ordinal >= ix.TotalEvents {
			return nil, fmt.Errorf("%w: frame ordinal %d beyond total events %d", ErrBinaryTrace, f.Ordinal, ix.TotalEvents)
		}
	}
	return ix, nil
}

func indexCorrupt(field string, err error) error {
	return fmt.Errorf("%w: index: truncated or invalid %s (%v)", ErrBinaryTrace, field, err)
}

// TraceFile is a v2 trace opened for random access: the trailer locates
// the index, the index locates frames, and OpenFrame decodes any frame
// without touching the rest of the body. This is what lets cmd/tracediff
// binary-search a multi-gigabyte pair of traces and decode only the
// divergent frame.
type TraceFile struct {
	r        io.ReaderAt
	meta     *Meta
	index    *Index
	indexOff uint64
}

// OpenTraceFile opens a complete v2 stream of the given size via random
// access. Unfinalized streams have no trailer and are rejected; stream
// them with NewBinaryReader instead.
func OpenTraceFile(r io.ReaderAt, size int64) (*TraceFile, error) {
	if size < 24 { // magic + end control + trailer
		return nil, fmt.Errorf("%w: file too short (%d bytes) for a finalized v2 trace", ErrBinaryTrace, size)
	}
	var trailer [16]byte
	if _, err := r.ReadAt(trailer[:], size-16); err != nil {
		return nil, err
	}
	if string(trailer[8:]) != string(indexEndMagic[:]) {
		return nil, fmt.Errorf("%w: no trailer end magic — not a finalized v2 trace (stream it with NewBinaryReader)", ErrBinaryTrace)
	}
	indexOff := binary.LittleEndian.Uint64(trailer[:8])
	if indexOff < 10 || indexOff > uint64(size-16) { // compared unsigned: an offset past 2^63 must not pass as negative
		return nil, fmt.Errorf("%w: trailer index offset %d outside file of %d bytes", ErrBinaryTrace, indexOff, size)
	}
	ix, err := parseIndex(io.NewSectionReader(r, int64(indexOff), size-16-int64(indexOff)))
	if err != nil {
		return nil, err
	}
	hr, err := newBinaryReader(io.NewSectionReader(r, 0, int64(indexOff)), 1<<12)
	if err != nil {
		return nil, err
	}
	for _, f := range ix.Frames {
		if f.Offset >= indexOff {
			return nil, fmt.Errorf("%w: frame offset %d beyond index at %d", ErrBinaryTrace, f.Offset, indexOff)
		}
	}
	return &TraceFile{r: r, meta: hr.Meta(), index: ix, indexOff: indexOff}, nil
}

// Meta returns the scenario fingerprint (nil if the stream carried none).
func (f *TraceFile) Meta() *Meta { return f.meta }

// Index returns the frame directory.
func (f *TraceFile) Index() *Index { return f.index }

// OpenFrame returns a reader over exactly frame i's events, positioned at
// its first event with fresh decoder state. Offsets in its errors are file
// offsets, like the streaming reader's.
func (f *TraceFile) OpenFrame(i int) (*BinaryReader, error) {
	if i < 0 || i >= len(f.index.Frames) {
		return nil, fmt.Errorf("trace: frame %d out of range [0,%d)", i, len(f.index.Frames))
	}
	start := f.index.Frames[i].Offset
	end := f.indexOff - 2 // the end-of-events control precedes the index
	if i+1 < len(f.index.Frames) {
		end = f.index.Frames[i+1].Offset - 2 // the restart control precedes the next frame
	}
	// The window is the section when that is smaller: decoding one frame
	// costs one read and the frame's own size in memory.
	size := min(max(int64(end)-int64(start), 1), windowSize)
	return &BinaryReader{
		w:       window{src: io.NewSectionReader(f.r, int64(start), int64(end-start)), buf: make([]byte, size), base: start},
		meta:    f.meta,
		bounded: true,
	}, nil
}
