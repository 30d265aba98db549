// Package trace records what happens during a simulated execution: message
// sends, deliveries, drops, crashes, recoveries, timers, decisions, and
// failure-detector output changes. Recorders feed the property checkers
// (which need timed output samples and the ground-truth fault pattern) and
// the experiment harness (which reports message/round costs).
//
// # Recording modes
//
// A Recorder always keeps aggregate statistics (Stats), held in atomic
// counters so stats-only recording is lock-free. Full event retention is
// opt-in (KeepEvents) and runs through a fixed-size staging ring of
// BufSize events; when the write position wraps, the full batch spills in
// one step:
//
//   - in-memory mode (default): the batch moves to a chunk list; Events()
//     concatenates chunks plus the staging tail in recording order. Unlike
//     a grow-forever append slice, previously recorded events are never
//     re-copied.
//   - streaming mode (SetSink / NewSpillRecorder): the batch is handed to
//     a caller-provided Sink and never retained, so a trace of any length
//     records in constant memory. WriterSink streams the canonical text
//     rendering (one Event.String per line) to an io.Writer; a spilled
//     trace file is byte-identical to WriteText over the same run's
//     in-memory events. BinarySink streams the compact binary format
//     instead (varint fields, delta-coded times, inline string interning;
//     see binary.go) — about an order of magnitude smaller and free of
//     per-event formatting; BinaryReader/ReadBinary decode it back to the
//     exact Event values, so its text rendering is byte-identical too.
//
// The zero value is a ready, concurrency-safe, stats-only recorder; a nil
// *Recorder is safe to record into and reports empty results.
//
// # Decoding
//
// BinaryReader decodes a binary stream (NewBinaryReader) or one frame of
// a finalized file (OpenTraceFile, TraceFile.OpenFrame) event by event
// (Next) or a slab at a time (NextBatch); Drain and DrainBatches are the
// matching pull loops over any EventSource. The decoder's contract:
//
//   - It owns a byte window over its source and refills it only at record
//     boundaries; reader state changes only once a record has been
//     scanned whole, so a refill never tears an event.
//   - Offsets in errors are absolute stream offsets, for frame readers
//     too.
//   - A batch belongs to the caller: NextBatch keeps no reference to dst,
//     and a batch handed out by DrainBatches, which reuses one slab, is
//     valid only until the callback returns and must not be retained.
//   - Errors are built in one place and are sticky. Corruption wraps
//     ErrBinaryTrace and names the field the stream was cut in; a read
//     error of the source other than io.EOF is returned unwrapped.
package trace
