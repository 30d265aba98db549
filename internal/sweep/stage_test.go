package sweep_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestStageRunsInOrderAndPublishes pins the hand-off: every function runs
// exactly once, in the order it was handed off, and once Wait returns,
// everything they wrote — plain writes, no atomics — is visible to the
// waiter (the race detector checks the ordering). Waiting again changes
// nothing.
func TestStageRunsInOrderAndPublishes(t *testing.T) {
	s := sweep.NewStage(3)
	var got []int
	want := []int{}
	for round := 1; round <= 20; round++ {
		for i := range round {
			v := 100*round + i
			s.Go(func() { got = append(got, v) })
			want = append(want, v)
		}
		s.Wait()
		s.Wait()
		if !slices.Equal(got, want) {
			t.Fatalf("after round %d: ran %v, want %v", round, got, want)
		}
	}
}

// await polls ch until it holds n values or a second has passed, and
// reports whether it got there.
func await(ch chan int, n int) bool {
	for start := time.Now(); len(ch) < n; time.Sleep(time.Millisecond) {
		if time.Since(start) > time.Second {
			return false
		}
	}
	return true
}

// TestStageDepthBound pins the bound: with the consumer stuck, Go returns
// for the first depth functions and blocks on the next, until the oldest
// pending one returns. The feeder runs on a second stage, so that the test
// goroutine can watch it block.
func TestStageDepthBound(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		s := sweep.NewStage(depth)
		release := make(chan struct{})
		handed := make(chan int, depth+1)
		feeder := sweep.NewStage(1)
		feeder.Go(func() {
			s.Go(func() { <-release })
			handed <- 1
			for i := 2; i <= depth+1; i++ {
				s.Go(func() {})
				handed <- i
			}
		})
		if !await(handed, depth) {
			t.Fatalf("depth %d: Go blocked with %d of %d pending", depth, len(handed), depth)
		}
		time.Sleep(20 * time.Millisecond)
		if n := len(handed); n != depth {
			t.Fatalf("depth %d: %d hand-offs returned with the consumer stuck, want %d", depth, n, depth)
		}
		close(release)
		feeder.Wait()
		s.Wait()
		if n := len(handed); n != depth+1 {
			t.Fatalf("depth %d: %d hand-offs returned after the release, want %d", depth, n, depth+1)
		}
	}
}

// TestStageZeroValue pins that the zero value is a ready stage of depth
// 1, as is NewStage of a depth below 1, and that Wait with nothing handed
// off returns at once and starts no goroutine.
func TestStageZeroValue(t *testing.T) {
	before := runtime.NumGoroutine()
	var zero sweep.Stage
	zero.Wait()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("Wait with nothing pending: %d goroutines, was %d", n, before)
	}
	for _, s := range []*sweep.Stage{&zero, sweep.NewStage(0), sweep.NewStage(-3)} {
		n := 0
		for range 10 {
			s.Go(func() { n++ })
		}
		s.Wait()
		if n != 10 {
			t.Fatalf("ran %d of 10 functions", n)
		}
	}
}

// TestStageReraisesPanic pins the panic contract: the first panic reaches
// the goroutine that waits, the functions handed off after it are dropped
// unrun, the stage's goroutine does not crash the process, and the stage
// is usable again afterwards.
func TestStageReraisesPanic(t *testing.T) {
	type boom struct{ n int }
	s := sweep.NewStage(2)
	var ran []int
	for i := range 6 {
		s.Go(func() {
			ran = append(ran, i)
			if i >= 2 {
				panic(boom{i})
			}
		})
	}
	func() {
		defer func() {
			if r := recover(); r != (boom{2}) {
				t.Fatalf("Wait re-raised %v, want boom{2}", r)
			}
		}()
		s.Wait()
		t.Fatal("Wait returned after a function panicked")
	}()
	if !slices.Equal(ran, []int{0, 1, 2}) {
		t.Fatalf("ran %v, want [0 1 2]: nothing after the panic", ran)
	}
	s.Wait() // the panic was delivered once
	s.Go(func() { ran = append(ran, 9) })
	s.Wait()
	if !slices.Equal(ran, []int{0, 1, 2, 9}) {
		t.Fatalf("stage unusable after a panic: ran %v", ran)
	}
}

// TestStageGoAllocatesNothing pins what a caller on a hot path relies on:
// once warm, a Go/Wait round allocates nothing, the goroutine's restart
// included.
func TestStageGoAllocatesNothing(t *testing.T) {
	s := sweep.NewStage(2)
	n := 0
	f := func() { n++ }
	s.Go(f)
	s.Wait()
	if avg := testing.AllocsPerRun(100, func() {
		s.Go(f)
		s.Go(f)
		s.Go(f)
		s.Wait()
	}); avg != 0 {
		t.Fatalf("a Go/Wait round allocates %.2f times, want 0", avg)
	}
}
