package sweep_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// costFuncs returns the cost functions the Cost tests sweep: all-equal
// (ties everywhere: index order), strictly increasing (dispatch reversed),
// and seeded random ones drawn from a small range so that ties occur.
func costFuncs(n, count int) []func(i int) int64 {
	fns := []func(i int) int64{
		func(int) int64 { return 7 },
		func(i int) int64 { return int64(i) },
	}
	for seed := int64(1); len(fns) < count; seed++ {
		rng := rand.New(rand.NewSource(seed))
		costs := make([]int64, n)
		for i := range costs {
			costs[i] = rng.Int63n(int64(n)/2) - 10
		}
		fns = append(fns, func(i int) int64 { return costs[i] })
	}
	return fns
}

// TestCostNeverChangesResults: whatever order Cost makes the pool start
// scenarios in, MapOpt and MapErr return what they return without it —
// the results in input order and the lowest-index error.
func TestCostNeverChangesResults(t *testing.T) {
	const n = 100
	in := make([]int, n)
	for i := range in {
		in[i] = 3 * i
	}
	square := func(i, v int) int { return v*v + i }
	fallible := func(i, v int) (int, error) {
		if i == 20 || i == 57 {
			return -1, fmt.Errorf("boom-%d", i)
		}
		return v + i, nil
	}
	wantOut := sweep.MapOpt(sweep.Options{Workers: 1}, in, square)
	wantErrOut, wantErr := sweep.MapErr(sweep.Options{Workers: 1}, in, fallible)
	if wantErr == nil || wantErr.Error() != "boom-20" {
		t.Fatalf("serial MapErr: err = %v, want boom-20", wantErr)
	}
	for _, workers := range []int{1, 2, 7, 64} {
		for k, cost := range costFuncs(n, 50) {
			opt := sweep.Options{Workers: workers, Cost: cost}
			if got := sweep.MapOpt(opt, in, square); !reflect.DeepEqual(got, wantOut) {
				t.Fatalf("workers=%d cost #%d: MapOpt = %v, want %v", workers, k, got, wantOut)
			}
			got, err := sweep.MapErr(opt, in, fallible)
			if !reflect.DeepEqual(got, wantErrOut) || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("workers=%d cost #%d: MapErr = %v, %v; want %v, %v", workers, k, got, err, wantErrOut, wantErr)
			}
		}
	}
}

// TestCostSerialRunIgnoresIt: one worker runs on the calling goroutine in
// index order and has no use for an estimate, so it asks for none.
func TestCostSerialRunIgnoresIt(t *testing.T) {
	var started []int
	sweep.MapOpt(sweep.Options{Workers: 1, Cost: func(i int) int64 {
		t.Errorf("serial run consulted Cost(%d)", i)
		return int64(i)
	}}, make([]struct{}, 10), func(i int, _ struct{}) int {
		started = append(started, i)
		return i
	})
	if !reflect.DeepEqual(started, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("serial run started %v, want index order", started)
	}
}

// TestCostOrdersDispatch holds every job at a gate, so that exactly the
// first `workers` indices handed out have started when the pool stalls:
// they must be the `workers` costliest, ties going to the lower index.
// Cost must have been asked once per index before the first job started;
// the tally is a plain slice on purpose — under -race, a job reading its
// slot while Cost is still being asked on another goroutine is reported.
func TestCostOrdersDispatch(t *testing.T) {
	const n = 40
	for _, workers := range []int{2, 7, 64} {
		for k, cost := range costFuncs(n, 12) {
			asked := make([]int, n)
			var running atomic.Bool
			gate := make(chan struct{})
			started := make(chan int, n)
			done := make(chan struct{})
			go func() {
				defer close(done)
				sweep.MapOpt(sweep.Options{Workers: workers, Cost: func(i int) int64 {
					if running.Load() {
						t.Errorf("workers=%d cost #%d: Cost(%d) asked after a job started", workers, k, i)
					}
					asked[i]++
					return cost(i)
				}}, make([]struct{}, n), func(i int, _ struct{}) int {
					running.Store(true)
					if asked[i] != 1 {
						t.Errorf("workers=%d cost #%d: job %d started with Cost asked %d times", workers, k, i, asked[i])
					}
					started <- i
					<-gate
					return i
				})
			}()
			first := min(workers, n)
			got := make([]int, first)
			for j := range got {
				got[j] = <-started
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return cost(want[a]) > cost(want[b]) })
			want = want[:first]
			sort.Ints(got)
			sort.Ints(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d cost #%d: first %d indices started = %v, want the costliest %v", workers, k, first, got, want)
			}
			close(gate)
			<-done
		}
	}
}

// TestMapPanicLowestIndexMatchesSerialUnderCost is
// TestMapPanicLowestIndexMatchesSerial with dispatch reversed: index 10 is
// started, panics and is captured while index 9 has not been handed out
// yet. 9 is below the captured panic, so it still runs, and its panic —
// the one a serial run stops at — is the one reported.
func TestMapPanicLowestIndexMatchesSerialUnderCost(t *testing.T) {
	for _, workers := range []int{2, 4, 16, 64} {
		got := func() (val any) {
			defer func() { val = recover() }()
			sweep.MapOpt(sweep.Options{Workers: workers, Cost: func(i int) int64 { return int64(i) }},
				make([]struct{}, 64), func(i int, _ struct{}) int {
					switch i {
					case 9:
						time.Sleep(30 * time.Millisecond)
						panic(fmt.Sprintf("boom-%d", i))
					case 10:
						panic(fmt.Sprintf("boom-%d", i))
					}
					return i
				})
			return nil
		}()
		if got != "boom-9" {
			t.Fatalf("workers=%d: panic = %v, want boom-9 (serial semantics)", workers, got)
		}
	}
}

// TestMapPanicStopsDispatchUnderCost: the panicking index is started
// first and everything else from the top down. What lies above the
// captured panic is a serial run's unreached tail and must stop being
// started; what lies below it a serial run had finished before the panic,
// and must all still run.
func TestMapPanicStopsDispatchUnderCost(t *testing.T) {
	const n, boom = 10_000, 100
	var below, above atomic.Int64
	func() {
		defer func() { recover() }()
		sweep.MapOpt(sweep.Options{Workers: 4, Cost: func(i int) int64 {
			if i == boom {
				return n
			}
			return int64(i)
		}}, make([]struct{}, n), func(i int, _ struct{}) int {
			switch {
			case i == boom:
				panic("early")
			case i < boom:
				below.Add(1)
			default:
				above.Add(1)
				time.Sleep(2 * time.Millisecond)
			}
			return i
		})
	}()
	if got := below.Load(); got != boom {
		t.Errorf("%d of the %d indices below the panic ran, want all", got, boom)
	}
	if got := above.Load(); got > n/10 {
		t.Errorf("pool kept dispatching above the panic: %d of %d jobs ran", got, n-boom-1)
	}
}
