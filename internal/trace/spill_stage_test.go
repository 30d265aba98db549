package trace

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/sweep"
)

// gateSink is a BinarySink whose every Spill waits until release is
// closed: a disk that stalls.
type gateSink struct {
	inner   *BinarySink
	release chan struct{}
}

func (s *gateSink) Spill(batch []Event) error {
	<-s.release
	return s.inner.Spill(batch)
}

func (s *gateSink) Flush() error { return s.inner.Flush() }

// awaitLen polls ch until it holds n values or a second has passed, and
// reports whether it got there.
func awaitLen(ch chan int, n int) bool {
	for start := time.Now(); len(ch) < n; time.Sleep(time.Millisecond) {
		if time.Since(start) > time.Second {
			return false
		}
	}
	return true
}

// TestSpillStagingBounded stalls the sink and records on: the recorder
// must get through exactly spillDepth hand-offs without blocking and
// block in the next, so staging stays bounded however far the sink falls
// behind. Once the sink moves again it must write exactly syncRecorder's
// bytes. The recording runs on a stage of its own, so that the test can
// watch it block.
func TestSpillStagingBounded(t *testing.T) {
	const bufSize = 16
	events := pipelineEvents((spillDepth+3)*bufSize+5, false)
	var got, want bytes.Buffer
	sink := &gateSink{inner: NewBinarySink(&got), release: make(chan struct{})}
	r := NewSpillRecorder(sink, bufSize)
	handed := make(chan int, spillDepth+1)
	feeder := sweep.NewStage(1)
	feeder.Go(func() {
		for i, e := range events {
			r.Record(e)
			if k := (i + 1) / bufSize; (i+1)%bufSize == 0 && k <= spillDepth+1 {
				handed <- k
			}
		}
	})
	if !awaitLen(handed, spillDepth) {
		t.Fatalf("Record blocked after %d hand-offs to a stalled sink, want %d", len(handed), spillDepth)
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(handed); n != spillDepth {
		t.Fatalf("%d hand-offs returned with the sink stalled, want %d", n, spillDepth)
	}
	close(sink.release)
	feeder.Wait()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(handed); n != spillDepth+1 {
		t.Fatalf("%d hand-offs returned after the sink moved, want %d", n, spillDepth+1)
	}
	if err, _ := spillAll(NewBinarySink(&want), bufSize, events, true, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("wrote %d bytes, syncRecorder %d, and they differ", got.Len(), want.Len())
	}
}

// settledGoroutines returns the goroutine count once goroutines that are
// on their way out (earlier tests' spills) have gone.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestSpillNoGoroutineOutlivesFlush pins that the background spill is up
// while batches are in flight and gone once Flush has returned.
func TestSpillNoGoroutineOutlivesFlush(t *testing.T) {
	before := settledGoroutines()
	r := NewSpillRecorder(nopSink{}, 8)
	for _, e := range genEvents(100) {
		r.Record(e)
	}
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines with batches handed off, %d before: no background spill", n, before)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(); n > before {
		t.Fatalf("%d goroutines after Flush, %d before", n, before)
	}
}

// panicSink panics in its at-th Spill and counts every call.
type panicSink struct {
	at, spills, flushes int
}

type sinkPanic struct{ batch int }

func (s *panicSink) Spill([]Event) error {
	s.spills++
	if s.spills == s.at {
		panic(sinkPanic{s.spills})
	}
	return nil
}

func (s *panicSink) Flush() error {
	s.flushes++
	return nil
}

// TestSpillPanicReraised has the sink panic on its third batch and the
// recorder record seven more. Record must not see the panic; the next
// Flush or Err must re-raise it on the recording goroutine, and no batch
// after the third may reach the sink.
func TestSpillPanicReraised(t *testing.T) {
	for _, via := range []string{"Err", "Flush"} {
		sink := &panicSink{at: 3}
		r := NewSpillRecorder(sink, 8)
		for _, e := range genEvents(8*10 + 3) {
			r.Record(e)
		}
		got := func() (p any) {
			defer func() { p = recover() }()
			if via == "Err" {
				r.Err()
			} else {
				r.Flush()
			}
			return nil
		}()
		if got != (sinkPanic{3}) {
			t.Errorf("%s re-raised %v, want the sink's panic on batch 3", via, got)
		}
		if sink.spills != 3 || sink.flushes != 0 {
			t.Errorf("%s: the sink saw %d spills and %d flushes, want 3 and 0", via, sink.spills, sink.flushes)
		}
	}
}
