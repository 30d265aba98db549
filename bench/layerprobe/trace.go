package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/bench/spans"
	"repro/internal/replay"
	"repro/internal/trace"
)

// traceBytes loads the live20k trace once; every trace and replay probe
// works on the in-memory copy so disk never enters their numbers. What
// the file costs hdsim -replay is timed first, the way it pays it: read
// front to back through a 64 KiB buffer, never held whole.
func (c *ctx) traceBytes() ([]byte, error) {
	if c.traceData != nil {
		return c.traceData, nil
	}
	f, err := os.Open(c.trace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	if _, err := io.CopyBuffer(io.Discard, onlyReader{f}, make([]byte, 1<<16)); err != nil {
		return nil, err
	}
	c.traceRead = time.Since(start)
	c.traceData, err = os.ReadFile(c.trace)
	return c.traceData, err
}

// onlyReader hides *os.File's ReadFrom/WriteTo, so CopyBuffer really
// reads through the buffer it was given.
type onlyReader struct{ io.Reader }

// timedSink is the bench-owned trace.Sink around the real one: each batch
// is a child span, so the recorder's self time (staging events) separates
// from the sink's (encoding and writing them).
type timedSink struct {
	rec    *spans.Recorder
	parent int
	name   string
	inner  trace.Sink
}

func (s *timedSink) Spill(batch []trace.Event) error {
	child := s.rec.Start(s.name, s.parent, "")
	err := s.inner.Spill(batch)
	s.rec.End(child)
	return err
}

// countWriter counts bytes on their way to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (w *countWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.n += int64(n)
	return n, err
}

// recordAll feeds events to rec and flushes it.
func recordAll(rec *trace.Recorder, events []trace.Event) (time.Duration, error) {
	start := time.Now()
	for _, e := range events {
		rec.Record(e)
	}
	err := rec.Flush()
	if err == nil {
		err = rec.Err()
	}
	return time.Since(start), err
}

// probeRecord times Recorder.Record in its three modes, and the two spill
// encodings, over the first events of the live20k trace.
func probeRecord(c *ctx, span int) error {
	data, err := c.traceBytes()
	if err != nil {
		return err
	}
	r, err := trace.NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	events := make([]trace.Event, 0, c.sz.recordEvents)
	for len(events) < c.sz.recordEvents {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		return errors.New("trace holds no events")
	}
	n := len(events)

	d, err := best(c.sz.repeats, func() (time.Duration, error) { return recordAll(&trace.Recorder{}, events) })
	if err != nil {
		return err
	}
	c.set("trace.record_stats_ns_per_event", nsPerEvent(d, n))

	d, err = best(c.sz.repeats, func() (time.Duration, error) {
		mem := trace.NewRecorder()
		d, err := recordAll(mem, events)
		if got := len(mem.Events()); err == nil && got != n {
			err = fmt.Errorf("in-memory recorder kept %d of %d events", got, n)
		}
		return d, err
	})
	if err != nil {
		return err
	}
	c.set("trace.record_mem_ns_per_event", nsPerEvent(d, n))

	// Spill mode writes a real file, as hdsim -trace does.
	var written int64
	d, err = best(c.sz.repeats, func() (time.Duration, error) {
		f, err := os.Create(filepath.Join(c.tmp, "record_spill.bin"))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		cw := &countWriter{w: f}
		bin := trace.NewBinarySink(cw)
		child := c.rec.Start("trace.record.spill", span, "")
		d, err := recordAll(trace.NewSpillRecorder(&timedSink{c.rec, child, "trace.sink.binary", bin}, 0), events)
		if err == nil {
			err = bin.Flush()
		}
		c.rec.End(child)
		written = cw.n
		return d, err
	})
	if err != nil {
		return err
	}
	c.set("trace.record_spill_ns_per_event", nsPerEvent(d, n))
	c.set("trace.binary_bytes_per_event", float64(written)/float64(n))

	d, err = best(c.sz.repeats, func() (time.Duration, error) {
		text := trace.NewWriterSink(io.Discard)
		child := c.rec.Start("trace.record.text", span, "")
		d, err := recordAll(trace.NewSpillRecorder(&timedSink{c.rec, child, "trace.sink.text", text}, 0), events)
		if err == nil {
			err = text.Flush()
		}
		c.rec.End(child)
		return d, err
	})
	if err != nil {
		return err
	}
	c.set("trace.text_spill_ns_per_event", nsPerEvent(d, n))
	return nil
}

// decodeAll drains a reader and returns the event count.
func decodeAll(r *trace.BinaryReader) (int, error) {
	n := 0
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// probeDecode times BinaryReader.Next over the whole trace in memory.
func probeDecode(c *ctx, _ int) error {
	data, err := c.traceBytes()
	if err != nil {
		return err
	}
	var n int
	var mallocs uint64
	c.decode, err = best(c.sz.repeats, func() (time.Duration, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		r, err := trace.NewBinaryReader(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		n, err = decodeAll(r)
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
		return d, err
	})
	if err != nil {
		return err
	}
	if n == 0 {
		return errors.New("trace holds no events")
	}
	c.set("trace.decode_ns_per_event", nsPerEvent(c.decode, n))
	c.set("trace.decode_allocs_per_event", float64(mallocs)/float64(n))
	return nil
}

// probeIndex opens the footer index and decodes the one frame that holds
// the run's mid-point: what a trace query would pay instead of a full scan.
func probeIndex(c *ctx, _ int) error {
	data, err := c.traceBytes()
	if err != nil {
		return err
	}
	start := time.Now()
	tf, err := trace.OpenTraceFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	c.set("trace.open_index_s", time.Since(start).Seconds())
	ix := tf.Index()
	c.set("trace.frames", float64(len(ix.Frames)))

	start = time.Now()
	i := ix.FrameForTime(30)
	if i < 0 || i >= len(ix.Frames) {
		return fmt.Errorf("FrameForTime(30) = %d of %d frames", i, len(ix.Frames))
	}
	fr, err := tf.OpenFrame(i)
	if err != nil {
		return err
	}
	n, err := decodeAll(fr)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("frame %d decoded to no events", i)
	}
	c.set("trace.frame_seek_s", time.Since(start).Seconds())
	return nil
}

// verify runs replay.Verify over a binary trace held in memory, handing
// it the reader itself as hdsim -replay does. The reader goes in bare on
// purpose: a bench-owned trace.EventSource around it costs 12 ns on each
// of 8 M events just to count calls through a second interface, a fifth
// of the run, and reading the clock there would cost more. The time spent
// inside Next comes from the decode-only pass instead.
func verify(data []byte) (time.Duration, error) {
	var report bytes.Buffer
	start := time.Now()
	r, err := trace.NewBinaryReader(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	err = replay.Verify(r.Meta(), r, &report)
	d := time.Since(start)
	if err == nil && !strings.Contains(report.String(), "verified ✔") {
		err = fmt.Errorf("replay report carries no verdict: %q", report.String())
	}
	return d, err
}

// probeReplay re-verifies the live20k trace offline, as hdsim -replay does.
func probeReplay(c *ctx, span int) error {
	data, err := c.traceBytes()
	if err != nil {
		return err
	}
	c.set("replay.file_read_s", c.traceRead.Seconds())
	d, err := best(c.sz.repeats, func() (time.Duration, error) { return verify(data) })
	if err != nil {
		return err
	}
	c.rec.Add("trace.decode (inside verify)", span, c.decode)
	c.set("replay.verify_s", d.Seconds())
	c.set("replay.verify_self_s", (d - c.decode).Seconds())
	return nil
}

// probeReplayOHP guards the consensus/detector replay path, which the
// heartbeat trace never enters.
func probeReplayOHP(c *ctx, _ int) error {
	data, err := os.ReadFile(c.ohp)
	if err != nil {
		return err
	}
	d, err := verify(data)
	if err != nil {
		return err
	}
	c.set("replay.verify_ohp_s", d.Seconds())
	return nil
}
