// Package trace records what happens during a simulated execution: message
// sends, deliveries, drops, crashes, recoveries, timers, decisions, and
// failure-detector output changes. Recorders feed the property checkers
// (which need timed output samples and the ground-truth fault pattern) and
// the experiment harness (which reports message/round costs).
//
// # Recording modes
//
// A Recorder always keeps aggregate statistics (Stats), held in plain
// counters. Full event retention is opt-in (KeepEvents). A retaining
// recorder does not keep Events: it stages each one as a 24-byte record
// with no pointers (stage.go) — time, pid, kind, and refs for the tag and
// detail into a string table the recorder owns, which only grows and is
// bounded by the run's distinct tags and details. Records go into a
// fixed-size staging buffer of BufSize; when it fills, the full batch
// spills in one step:
//
//   - in-memory mode (default): the batch moves to a chunk list; Events()
//     expands the chunks plus the staging tail, in recording order, on
//     demand. Unlike a grow-forever append slice, previously recorded
//     events are never re-copied.
//   - streaming mode (NewSpillRecorder): the batch is handed to
//     a caller-provided Sink and never retained, so a trace of any length
//     records in memory bounded by its distinct strings. The hand-off is
//     pipelined: each full batch goes to a background spill (a
//     sweep.Stage) while recording continues into the next buffer of a
//     ring of spillDepth+1. Up to spillDepth batches are in flight — a
//     hand-off blocks only when that many are, and Flush and Err wait for
//     all of them — and the stage spills them one at a time, oldest
//     first, so the sink sees the same batches, in the same order, as a
//     synchronous spill, and writes the same bytes; the encoding runs on a
//     second core beside the engine, and a late wake-up of it costs the
//     engine nothing until the ring is full. The records hold no pointer, so
//     a spilled slot has nothing to clear.
//     A *BinarySink takes the staged records directly and encodes them in
//     its one loop (see binary.go): varint fields, delta-coded times,
//     inline string interning, a frame's wire ref found by the record's
//     ref rather than by hashing the string — about an order of magnitude
//     smaller than text and free of per-event formatting; BinaryReader
//     decodes it back to the exact Event values. BinarySink.Spill, for
//     callers holding Events, stages them over a table of the sink's own
//     and runs the same loop. Any other Sink gets each batch expanded to
//     Events in one reused buffer: WriterSink streams the canonical text
//     rendering (one Event.String per line), byte-identical to WriteText
//     over the same run's in-memory events and to the decoded binary
//     trace rendered.
//
// The engine records each delivery through RecordDeliver, with the ref
// Intern gave the broadcast's tag: one record written, one counter
// incremented, no Event built and no string compared.
//
// The zero value is a ready, stats-only recorder; a nil *Recorder is safe
// to record into and reports empty results.
//
// A Recorder has one writer and takes no lock: it belongs to one
// goroutine at a time, the one that records into it while the run lasts
// and whoever reads it afterwards. The simulator records from its engine's
// goroutine; the live runtime (internal/hruntime) serializes its
// processes' and delivery goroutines' records under its cluster lock and
// reads the recorder after the run has stopped. The background spill is
// the one other goroutine that touches a Recorder, and only the slots
// handed to it (a batch and a view of the string table as of its
// hand-off, which only appends), the expansion buffer and the sink error,
// which every reader waits for.
//
// # Decoding
//
// BinaryReader decodes a binary stream (NewBinaryReader), or a finalized
// file from any frame on (OpenTraceFile, TraceFile.OpenFrom; OpenFrame is
// its one-frame case), a slab at a time (NextBatch, the EventSource
// method) or event by event (Next, which is NextBatch for one event).
// DrainBatches is the pull loop over any EventSource.
// TraceFile.DrainShards drains a finalized file as contiguous frame
// ranges, one bounded reader each, concurrently through sweep; it succeeds
// only when the index proves the ranges are the stream a streaming reader
// decodes (frame 0 where the header ends, a restart control before each
// range boundary, every range clean to its section's end with no
// end-of-events control inside, that control right before the index, the
// range counts summing to Index.TotalEvents) and fails with
// ErrShardLayout otherwise, so a caller falls back to NewBinaryReader for
// the exact error. OpenTraceFile requires the index to end exactly at the
// trailer, as the streaming reader does. The decoder's contract:
//
//   - It owns a byte window over its source and refills it only at record
//     boundaries; reader state changes only once a record has been
//     scanned whole, so a refill never tears an event.
//   - NextBatch decodes runs of ordinary records — one-byte kind, time
//     delta, tag and detail refs to known strings, a pid of up to three
//     bytes, at least 8 bytes of window ahead — in one loop over locals,
//     the decoder's only fast path, and hands every other record to next,
//     a plain per-record decoder and the one place that refills, interns
//     strings and builds errors.
//   - Offsets in errors are absolute stream offsets, for frame readers
//     too.
//   - A batch belongs to the caller: NextBatch keeps no reference to dst,
//     and a batch handed out by DrainBatches, which reuses one slab, is
//     valid only until the callback returns and must not be retained.
//   - Errors are built in one place and are sticky. Corruption wraps
//     ErrBinaryTrace and names the field the stream was cut in; a read
//     error of the source other than io.EOF is returned unwrapped.
package trace
