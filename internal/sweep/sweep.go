package sweep

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures one sweep.
type Options struct {
	// Workers is the number of concurrent scenarios. 0 means the
	// process-wide default (SetDefaultWorkers), which itself defaults to
	// GOMAXPROCS; 1 runs serially on the calling goroutine.
	Workers int
	// Cost, when non-nil, is a scheduling hint: the pool starts indices in
	// descending Cost(i), ties in ascending i, so that the longest scenario
	// does not start last and leave the other workers idle through its
	// tail. It is called once per index, on the calling goroutine, before
	// any scenario runs, and not at all by a serial run. It can change
	// when a scenario runs, never what Map returns: results stay in input
	// order, and the error and the panic reported stay the lowest-index
	// ones. Nil dispatches in index order.
	Cost func(i int) int64
}

// defaultWorkers is the process-wide worker count used when Options.Workers
// is 0. Zero means GOMAXPROCS.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count (n <= 0
// resets to GOMAXPROCS). CLIs expose it as -workers; tests use it to force
// serial runs.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers reports the effective default worker count.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs f(i, inputs[i]) for every input on the default worker pool and
// returns the results in input order.
func Map[I, R any](inputs []I, f func(i int, in I) R) []R {
	return MapOpt(Options{}, inputs, f)
}

// MapOpt is Map with explicit options.
func MapOpt[I, R any](opt Options, inputs []I, f func(i int, in I) R) []R {
	results := make([]R, len(inputs))
	run(opt, len(inputs), func(i int) { results[i] = f(i, inputs[i]) })
	return results
}

// MapErr is MapOpt for fallible scenarios. All inputs run to completion;
// the returned error is the lowest-index one, so the aggregate outcome
// does not depend on completion order.
func MapErr[I, R any](opt Options, inputs []I, f func(i int, in I) (R, error)) ([]R, error) {
	results := make([]R, len(inputs))
	errs := make([]error, len(inputs))
	run(opt, len(inputs), func(i int) { results[i], errs[i] = f(i, inputs[i]) })
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// run executes job(0..n-1) on a pool. Workers pull the next position of
// the dispatch order (index order, or opt.Cost's) from an atomic counter;
// each index is executed at most once, and exactly once if nothing
// panics. Panic semantics match serial execution deterministically: once
// a panic at index p is captured, indices above the lowest captured p are
// no longer started, every index below it still is, already-started jobs
// run to completion, and the panic re-raised on the calling goroutine is
// the lowest-index one. That index is exactly the index a serial run
// would have panicked at: an index is only ever skipped for being above a
// captured panic, so the lowest panicking index is never skipped, and
// everything below it runs whatever the dispatch order.
func run(opt Options, n int, job func(i int)) {
	if n == 0 {
		return
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var order []int // order[k] is the k-th index started; nil is index order
	if opt.Cost != nil {
		order = byDescendingCost(n, opt.Cost)
	}
	var (
		next        atomic.Int64
		lowestPanic atomic.Int64 // lowest index whose panic was captured, n while none
		wg          sync.WaitGroup
		panicMu     sync.Mutex
		panicked    any
	)
	lowestPanic.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if order != nil {
					i = order[i]
				}
				if int64(i) > lowestPanic.Load() {
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if int64(i) < lowestPanic.Load() {
								lowestPanic.Store(int64(i))
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					job(i)
				}()
			}
		}()
	}
	wg.Wait()
	if lowestPanic.Load() < int64(n) {
		panic(panicked)
	}
}

// byDescendingCost returns 0..n-1 ordered by descending cost(i), ties by
// ascending i, evaluating cost once per index.
func byDescendingCost(n int, cost func(i int) int64) []int {
	costs := make([]int64, n)
	order := make([]int, n)
	for i := range order {
		costs[i], order[i] = cost(i), i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	return order
}
