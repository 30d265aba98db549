package trace

import "io"

// EventSource is the pull face of an event stream: NextBatch fills dst
// with the next events in recording order and returns how many — n > 0
// and a nil error, or 0 and an error, io.EOF at the end — for any
// non-empty dst. It is the seam that decouples checkers from live
// engines — a BinaryReader over a spilled trace file and a SliceSource
// over an in-memory event list are both EventSources, so every consumer
// written against this interface replays a recorded run exactly as it
// would have observed the live one.
type EventSource interface {
	NextBatch(dst []Event) (int, error)
}

// SliceSource is an EventSource over an in-memory event slice, in order.
type SliceSource struct {
	evs []Event
	i   int
}

// NewSliceSource wraps evs; the slice is read, not copied or mutated.
//
//detlint:ignore unreached test support: trace and replay tests feed in-memory events through it
func NewSliceSource(evs []Event) *SliceSource { return &SliceSource{evs: evs} }

// NextBatch implements EventSource.
func (s *SliceSource) NextBatch(dst []Event) (int, error) {
	if s.i >= len(s.evs) {
		return 0, io.EOF
	}
	n := copy(dst, s.evs[s.i:])
	s.i += n
	return n, nil
}

// drainSlab is the batch DrainBatches pulls at a time: large enough that
// per-batch costs vanish against per-event ones, small enough (28 KiB)
// that a replay's memory does not move.
const drainSlab = 512

// DrainBatches pulls src to exhaustion, handing fn the events in batches:
// one reused slab, filled by the source's NextBatch. A batch is valid only
// until fn returns — fn must copy what it keeps. Events that precede an
// error of the source are delivered before DrainBatches returns it.
func DrainBatches(src EventSource, fn func([]Event) error) error {
	slab := make([]Event, drainSlab)
	for {
		n, err := src.NextBatch(slab)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(slab[:n]); err != nil {
			return err
		}
	}
}
