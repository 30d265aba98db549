package sweep

// Stage runs handed-off functions one at a time, in the order they were
// handed off, on one goroutine of its own beside the goroutine that feeds
// it: where Map fans independent scenarios out, a Stage overlaps one step
// of a pipeline with the next. Up to its depth of functions may be pending
// (handed off and not yet returned), so the feeder runs ahead of a
// consumer that falls behind now and then instead of meeting it at every
// hand-off; Go blocks only when that many are pending.
//
// The zero value is ready to use and has depth 1. Calls to Go and Wait
// must not overlap (one goroutine makes them, or a lock serializes them).
// Once Go returns, every function handed off depth or more calls earlier
// has returned and its writes are visible to the caller; until then, a
// function and the caller must not touch the same memory.
type Stage struct {
	depth    int
	fs       chan func()   // handed off, not yet started
	tokens   chan struct{} // one per pending function: Go's bound
	done     chan struct{} // the goroutine's last word before it exits
	loop     func()        // s.run, bound once so that Go allocates nothing
	running  bool          // the goroutine is up; Wait stops it
	panicked any           // the first panic, once a function has panicked
}

// NewStage returns a stage on which up to depth functions may be pending;
// depth below 1 means 1.
func NewStage(depth int) *Stage {
	return &Stage{depth: depth}
}

// Go hands f to the stage's goroutine, starting that goroutine if it is
// not running, and returns once f is queued: at once unless depth
// functions are pending, else as soon as the oldest of them returns.
// Once a function has panicked, f and every later function are dropped
// unrun until Wait has re-raised the panic.
func (s *Stage) Go(f func()) {
	if s.fs == nil {
		d := max(s.depth, 1)
		s.fs, s.tokens, s.done = make(chan func(), d), make(chan struct{}, d), make(chan struct{})
		s.loop = s.run
	}
	s.tokens <- struct{}{}
	s.fs <- f
	if !s.running {
		s.running = true
		go s.loop()
	}
}

// run is the stage's goroutine: it calls the queued functions in order and
// frees each one's token as it returns, until Wait's nil asks it to stop.
func (s *Stage) run() {
	for f := <-s.fs; f != nil; f = <-s.fs {
		if s.panicked == nil {
			s.call(f)
		}
		<-s.tokens
	}
	s.done <- struct{}{}
}

// call runs f and keeps its panic, if any, for Wait to re-raise.
func (s *Stage) call(f func()) {
	defer func() {
		if p := recover(); p != nil {
			s.panicked = p
		}
	}()
	f()
}

// Wait blocks until every function handed off so far has returned, so that
// everything they wrote is visible to the caller, and stops the stage's
// goroutine; the next Go starts another. If a function panicked, Wait
// re-raises its panic on the calling goroutine, as Map re-raises a
// scenario's, and the stage is ready for use again. With nothing handed
// off since the last Wait it returns at once.
func (s *Stage) Wait() {
	if !s.running {
		return
	}
	s.fs <- nil
	<-s.done
	p := s.panicked
	s.running, s.panicked = false, nil
	if p != nil {
		panic(p)
	}
}
