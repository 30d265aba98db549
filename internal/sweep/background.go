package sweep

import "sync"

// Background runs one function at a time on a goroutine of its own, beside
// the goroutine that started it: where Map fans independent scenarios out,
// Background overlaps one stage of a pipeline with the next. The zero value
// is ready to use. Calls to Go and Wait must not overlap (one goroutine
// makes them, or a lock serializes them), and until Wait returns, f and
// the caller must not touch the same memory.
type Background struct {
	wg       sync.WaitGroup
	f        func()
	start    func() // b.run, bound once so that Go allocates nothing
	pending  bool
	panicked any
}

// Go starts f on its own goroutine and returns at once. The function of
// an earlier Go must have been waited for; Go panics otherwise, so at most
// one f is ever in flight.
func (b *Background) Go(f func()) {
	if b.pending {
		panic("sweep: Background.Go before the previous function was waited for")
	}
	if b.start == nil {
		b.start = b.run
	}
	b.pending, b.f = true, f
	b.wg.Add(1)
	go b.start()
}

func (b *Background) run() {
	defer b.wg.Done()
	defer func() { b.panicked = recover() }()
	b.f()
}

// Wait blocks until the f of the last Go has returned, so that everything
// f wrote is visible to the caller. If f panicked, Wait re-raises the panic
// on the calling goroutine, as Map re-raises a scenario's. With no f
// pending it returns at once.
func (b *Background) Wait() {
	if !b.pending {
		return
	}
	b.wg.Wait()
	p := b.panicked
	b.pending, b.f, b.panicked = false, nil, nil
	if p != nil {
		panic(p)
	}
}
