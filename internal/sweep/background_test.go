package sweep_test

import (
	"testing"

	"repro/internal/sweep"
)

// TestBackgroundRunsOnceAndPublishes pins the hand-off: each Go runs its f
// exactly once, and once Wait returns, everything f wrote — plain writes,
// no atomics — is visible to the waiter (the race detector checks the
// ordering). Waiting again, or with nothing pending, changes nothing.
func TestBackgroundRunsOnceAndPublishes(t *testing.T) {
	var bg sweep.Background
	bg.Wait() // nothing pending: returns at once
	calls := 0
	var got []int
	for round := 1; round <= 50; round++ {
		bg.Go(func() {
			calls++
			got = append(got, round)
		})
		bg.Wait()
		bg.Wait()
		if calls != round || len(got) != round || got[round-1] != round {
			t.Fatalf("after round %d: %d calls, writes %v", round, calls, got)
		}
	}
}

// TestBackgroundReraisesPanic pins the panic contract: f's panic value
// reaches the goroutine that waits, the background goroutine does not
// crash the process, and the Background is usable again afterwards.
func TestBackgroundReraisesPanic(t *testing.T) {
	var bg sweep.Background
	type boom struct{ n int }
	bg.Go(func() { panic(boom{7}) })
	func() {
		defer func() {
			if r := recover(); r != (boom{7}) {
				t.Fatalf("Wait re-raised %v, want boom{7}", r)
			}
		}()
		bg.Wait()
		t.Fatal("Wait returned after f panicked")
	}()
	bg.Wait() // the panic was delivered once
	ran := false
	bg.Go(func() { ran = true })
	bg.Wait()
	if !ran {
		t.Fatal("Background unusable after a panic")
	}
}

// TestBackgroundOneInFlight pins that a second Go before the first f was
// waited for panics on the caller instead of running two at once.
func TestBackgroundOneInFlight(t *testing.T) {
	var bg sweep.Background
	release := make(chan struct{})
	bg.Go(func() { <-release })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Go with a function pending must panic")
			}
		}()
		bg.Go(func() {})
	}()
	close(release)
	bg.Wait()
}

// TestBackgroundGoAllocatesNothing pins what a caller on a hot path relies
// on: once warm, a Go/Wait round allocates nothing.
func TestBackgroundGoAllocatesNothing(t *testing.T) {
	var bg sweep.Background
	n := 0
	f := func() { n++ }
	bg.Go(f)
	bg.Wait()
	if avg := testing.AllocsPerRun(100, func() {
		bg.Go(f)
		bg.Wait()
	}); avg != 0 {
		t.Fatalf("a Go/Wait round allocates %.2f times, want 0", avg)
	}
}
