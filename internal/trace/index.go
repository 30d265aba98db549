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
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/sweep"
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
//
//detlint:ignore unreached test oracle: the only reader of the index's bloom, held by the index tests
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

// FrameForTime returns the frame where events at time t begin, for traces
// recorded in engine pop order (monotone time): the frame before the first
// one starting at or after t. A delivery wave records many events at one
// instant, so several frames can start at t, and the events at t may begin
// in the tail of the frame before them; reading forward from the returned
// frame meets every event at t. It returns 0 when no earlier frame exists,
// and -1 for an empty index.
//
//detlint:ignore unreached pinned by bench/layerprobe, a separate module detlint does not load
func (ix *Index) FrameForTime(t int64) int {
	if len(ix.Frames) == 0 {
		return -1
	}
	i := sort.Search(len(ix.Frames), func(i int) bool { return ix.Frames[i].Start >= t })
	return max(i-1, 0)
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
// the index, the index locates frames, and OpenFrom decodes from any frame
// on without touching the body before it. This is what lets cmd/tracediff
// binary-search a multi-gigabyte pair of traces and start decoding at the
// divergent frame.
type TraceFile struct {
	r        io.ReaderAt
	meta     *Meta
	index    *Index
	bodyOff  uint64 // where the header ends
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
	sec := io.NewSectionReader(r, int64(indexOff), size-16-int64(indexOff))
	br := bufio.NewReader(sec)
	ix, err := parseIndex(br)
	if err != nil {
		return nil, err
	}
	// The streaming reader wants the trailer right after the index too.
	pos, _ := sec.Seek(0, io.SeekCurrent) // a SectionReader's SeekCurrent by 0 cannot fail
	if end := int64(indexOff) + pos - int64(br.Buffered()); end != size-16 {
		return nil, fmt.Errorf("%w: index ends at offset %d, %d bytes before the trailer", ErrBinaryTrace, end, size-16-end)
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
	return &TraceFile{r: r, meta: hr.Meta(), index: ix, bodyOff: hr.w.offset(), indexOff: indexOff}, nil
}

// Meta returns the scenario fingerprint (nil if the stream carried none).
func (f *TraceFile) Meta() *Meta { return f.meta }

// Index returns the frame directory.
func (f *TraceFile) Index() *Index { return f.index }

// OpenFrom returns one reader over frames i through the last, positioned
// at frame i's first event with fresh decoder state; i == len(Frames)
// gives a reader with no events. Offsets in its errors are file offsets,
// like the streaming reader's.
func (f *TraceFile) OpenFrom(i int) (*BinaryReader, error) {
	if i < 0 || i > len(f.index.Frames) {
		return nil, fmt.Errorf("trace: frame %d out of range [0,%d]", i, len(f.index.Frames))
	}
	return f.openFrames(i, len(f.index.Frames)), nil
}

// OpenFrame returns a reader over exactly frame i's events: OpenFrom's
// reader cut at the next frame.
//
//detlint:ignore unreached pinned by bench/layerprobe, a separate module detlint does not load
func (f *TraceFile) OpenFrame(i int) (*BinaryReader, error) {
	if i < 0 || i >= len(f.index.Frames) {
		return nil, fmt.Errorf("trace: frame %d out of range [0,%d)", i, len(f.index.Frames))
	}
	return f.openFrames(i, i+1), nil
}

// openFrames returns a bounded reader over frames [i, j), for
// 0 <= i <= j <= len(Frames).
func (f *TraceFile) openFrames(i, j int) *BinaryReader {
	end := f.sectionEnd(j)
	start := end
	if i < j {
		start = f.index.Frames[i].Offset
	}
	// The window is the section when that is smaller: decoding one frame
	// costs one read and the frame's own size in memory.
	size := min(max(int64(end)-int64(start), 1), windowSize)
	return &BinaryReader{
		w:       window{src: io.NewSectionReader(f.r, int64(start), int64(end-start)), buf: make([]byte, size), base: start},
		meta:    f.meta,
		bounded: true,
	}
}

// sectionEnd is where the events before frame j end: at the restart
// control that precedes frame j, or at the end-of-events control that
// precedes the index when j is past the last frame.
func (f *TraceFile) sectionEnd(j int) uint64 {
	if j < len(f.index.Frames) {
		return f.index.Frames[j].Offset - 2
	}
	return f.indexOff - 2
}

// ErrShardLayout reports a finalized trace that DrainShards cannot prove
// decodes, shard by shard, to the events a streaming reader decodes: a
// corrupt body, or an index that does not describe it. Re-read such a
// trace with NewBinaryReader, which names what is wrong with it.
var ErrShardLayout = errors.New("trace: index does not prove the shard layout")

// DrainShards drains the body as len(fns) shards, contiguous ranges of
// frames as even in frame count as the split allows, fns[s] taking shard
// s's events in order, a batch at a time, as DrainBatches hands them
// (valid only during the call). The shards decode concurrently through
// sweep, one bounded reader each, and each fns[s] runs on one goroutine.
//
// It returns nil only when the index proves that the shards, in order,
// are the events a streaming reader of the file decodes:
//
//   - frame 0 starts where the header ends;
//   - a restart control sits right before every shard's first frame but
//     the first, so the stream starts each shard with fresh state too;
//   - every shard decodes cleanly to exactly its section's end — an
//     end-of-events control inside a section fails;
//   - the end-of-events control sits right before the index;
//   - the shards' event counts sum to Index.TotalEvents.
//
// Every other outcome, a shard's decode error included, is an error
// wrapping ErrShardLayout, and whatever fns were handed must be discarded.
// It asks for 1 <= len(fns) <= len(Frames).
func (f *TraceFile) DrainShards(fns []func([]Event)) error {
	k, frames := len(fns), f.index.Frames
	if k < 1 || k > len(frames) {
		return fmt.Errorf("%w: %d shards for %d frames", ErrShardLayout, k, len(frames))
	}
	if frames[0].Offset != f.bodyOff {
		return fmt.Errorf("%w: frame 0 at offset %d, header ends at %d", ErrShardLayout, frames[0].Offset, f.bodyOff)
	}
	counts, err := sweep.MapErr(sweep.Options{}, fns, func(s int, fn func([]Event)) (uint64, error) {
		return f.drainShard(s*len(frames)/k, (s+1)*len(frames)/k, fn)
	})
	if err != nil {
		return err
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != f.index.TotalEvents {
		return fmt.Errorf("%w: shards hold %d events, index records %d", ErrShardLayout, total, f.index.TotalEvents)
	}
	return nil
}

// drainShard drains frames [i, j) into fn and returns how many events they
// hold, once it has checked that they decode cleanly to their section's
// end and that the control after it is the one the layout puts there.
func (f *TraceFile) drainShard(i, j int, fn func([]Event)) (uint64, error) {
	d := f.openFrames(i, j)
	if err := DrainBatches(d, func(batch []Event) error { fn(batch); return nil }); err != nil {
		return 0, fmt.Errorf("%w: frames [%d,%d): %v", ErrShardLayout, i, j, err)
	}
	// A bounded reader ends cleanly at its section's end or at an
	// end-of-events control, which a streaming reader would stop at.
	if d.ended {
		return 0, fmt.Errorf("%w: end-of-events control inside frames [%d,%d)", ErrShardLayout, i, j)
	}
	end := f.sectionEnd(j)
	want := [2]byte{0, controlRestart}
	if j == len(f.index.Frames) {
		want[1] = controlEnd
	}
	var got [2]byte
	if _, err := f.r.ReadAt(got[:], int64(end)); err != nil || got != want {
		return 0, fmt.Errorf("%w: control at offset %d reads % x, want % x", ErrShardLayout, end, got, want)
	}
	return d.counted, nil
}
