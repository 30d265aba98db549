package trace

import "io"

// EventSource is the pull face of an event stream: Next returns events
// in recording order and io.EOF at the end. It is the seam that decouples
// checkers from live engines — a BinaryReader over a spilled trace file
// and a SliceSource over an in-memory event list are both EventSources,
// so every consumer written against this interface replays a recorded
// run exactly as it would have observed the live one.
type EventSource interface {
	Next() (Event, error)
}

// SliceSource is an EventSource over an in-memory event slice, in order.
type SliceSource struct {
	evs []Event
	i   int
}

// NewSliceSource wraps evs; the slice is read, not copied or mutated.
func NewSliceSource(evs []Event) *SliceSource { return &SliceSource{evs: evs} }

// Next implements EventSource.
func (s *SliceSource) Next() (Event, error) {
	if s.i >= len(s.evs) {
		return Event{}, io.EOF
	}
	e := s.evs[s.i]
	s.i++
	return e, nil
}

// Drain pulls src to exhaustion, handing each event to fn. It stops at
// the first error from either side; io.EOF from the source is the clean
// end and returns nil.
func Drain(src EventSource, fn func(Event) error) error {
	for {
		e, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// drainSlab is the batch DrainBatches pulls at a time: large enough that
// per-batch costs vanish against per-event ones, small enough (28 KiB)
// that a replay's memory does not move.
const drainSlab = 512

// DrainBatches pulls src to exhaustion like Drain, handing fn the events
// in batches: one reused slab, filled by the source's NextBatch when it
// has one (a BinaryReader does) and by Next otherwise. A batch is valid
// only until fn returns — fn must copy what it keeps. Events that precede
// an error of the source are delivered before DrainBatches returns it.
func DrainBatches(src EventSource, fn func([]Event) error) error {
	slab := make([]Event, drainSlab)
	batcher, _ := src.(interface{ NextBatch([]Event) (int, error) })
	for {
		var n int
		var err error
		if batcher != nil {
			n, err = batcher.NextBatch(slab)
		} else {
			for n < len(slab) && err == nil {
				if slab[n], err = src.Next(); err == nil {
					n++
				}
			}
		}
		if n > 0 {
			if err := fn(slab[:n]); err != nil {
				return err
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
