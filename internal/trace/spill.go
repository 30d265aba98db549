package trace

import (
	"bufio"
	"io"
)

// Sink receives batches of events spilled from a Recorder. Spill is called
// with batches in recording order; the batch slice is borrowed for the
// duration of the call only — the recorder overwrites it with the next
// batch as soon as Spill returns — so a sink that keeps events must copy
// them. A Recorder calls Spill from at most one goroutine at a time (under
// its own lock); sinks need no locking of their own.
type Sink interface {
	Spill(batch []Event) error
}

// Flusher is implemented by sinks with buffered output; Recorder.Flush
// calls it after spilling the final partial batch.
type Flusher interface {
	Flush() error
}

// WriterSink streams spilled batches to an io.Writer as text, one event
// per line in Event.String form — the same rendering WriteText produces
// for an in-memory trace, so a spilled trace file is byte-identical to the
// rendered Events() of an in-memory recorder of the same run. Output is
// buffered; call Recorder.Flush (which reaches Flush here) before reading
// the destination.
type WriterSink struct {
	w *bufio.Writer
}

// NewWriterSink wraps w.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{w: bufio.NewWriter(w)}
}

// Spill implements Sink.
func (s *WriterSink) Spill(batch []Event) error {
	return WriteText(s.w, batch)
}

// Flush implements Flusher.
func (s *WriterSink) Flush() error { return s.w.Flush() }

// WriteText renders events one per line in their canonical String form.
// It is the single text serialization of traces: WriterSink uses it per
// batch, and callers rendering in-memory events through it get output
// byte-identical to a spilled trace file.
func WriteText(w io.Writer, events []Event) error {
	// A bufio.Writer is not re-wrapped: Writer.WriteString on the
	// underlying writer is enough, and WriterSink already buffers.
	for _, e := range events {
		if _, err := io.WriteString(w, e.String()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}
