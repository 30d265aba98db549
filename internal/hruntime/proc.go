package hruntime

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Proc runs one sim.Process — normally a *sim.Node stacking a detector
// under a consensus instance — on its own goroutine, and is the
// sim.Environment that process sees. Everything the process reacts to
// arrives through one mailbox, the cluster inbox: delivered payloads,
// expired timers and Do closures. The goroutine handles them one at a
// time, so the process gets the sequential Init/OnMessage/OnTimer calls
// sim.Process promises and needs no locking.
type Proc struct {
	c   *Cluster
	pid int
	rng *rand.Rand

	stop   chan struct{} // closed by Stop
	exited chan struct{} // closed when the goroutine has returned
	once   sync.Once
}

var _ sim.Environment = (*Proc)(nil)

// timerFired is the mailbox entry of an expired SetTimer(_, tag).
type timerFired int

// Start runs proc as process p of the cluster and returns its handle. Call
// it at most once per p; the caller owns the Proc and must Stop it.
func (c *Cluster) Start(p int, proc sim.Process) *Proc {
	pr := &Proc{
		c:      c,
		pid:    p,
		rng:    rand.New(rand.NewSource(c.opts.Seed + int64(p) + 1)),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go pr.run(proc)
	return pr
}

func (p *Proc) run(proc sim.Process) {
	defer close(p.exited)
	proc.Init(p)
	for {
		select {
		case <-p.stop:
			return
		case m := <-p.c.inboxes[p.pid]:
			if f, ok := m.(func()); ok {
				f()
			} else if p.c.Crashed(p.pid) {
				continue // a crashed process takes no steps
			} else if tag, ok := m.(timerFired); ok {
				proc.OnTimer(int(tag))
			} else {
				proc.OnMessage(m)
			}
		}
	}
}

// post puts m in the mailbox; it gives up once the process is stopped and
// nobody drains the mailbox any more.
func (p *Proc) post(m any) bool {
	select {
	case p.c.inboxes[p.pid] <- m:
		return true
	case <-p.stop:
		return false
	}
}

// Do runs f on the process's goroutine, between two events, and waits for
// it: the lock-free way to read the process's state (Decided, TrustedView)
// from outside. It works on a crashed process too. It reports false, and f
// did not run, if the process was stopped first.
func (p *Proc) Do(f func()) bool {
	ran := make(chan struct{})
	if !p.post(func() { f(); close(ran) }) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-p.exited:
		select {
		case <-ran: // f ran just before the goroutine returned
			return true
		default:
			return false
		}
	}
}

// Stop ends the process's goroutine and returns once it has exited. Timers
// still armed fire into the void. Safe to call more than once.
func (p *Proc) Stop() {
	p.once.Do(func() { close(p.stop) })
	<-p.exited
}

// ID implements sim.Environment.
func (p *Proc) ID() ident.ID { return p.c.ids[p.pid] }

// N implements sim.Environment; the live runtime grants knowledge of n.
func (p *Proc) N() (int, bool) { return p.c.N(), true }

// Now implements sim.Environment: Options.Unit units since cluster start.
func (p *Proc) Now() sim.Time { return p.c.sinceStart() }

// Rand implements sim.Environment with a per-process source.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Broadcast implements sim.Environment.
func (p *Proc) Broadcast(payload any) { p.c.Broadcast(p.pid, payload) }

// SetTimer implements sim.Environment with a real one-shot timer.
func (p *Proc) SetTimer(d sim.Time, tag int) {
	if d < 1 {
		d = 1
	}
	time.AfterFunc(time.Duration(d)*p.c.opts.Unit, func() { p.post(timerFired(tag)) })
}

// Note implements sim.Environment.
func (p *Proc) Note(kind trace.Kind, tag, detail string) {
	p.c.opts.Recorder.Record(trace.Event{Time: p.c.sinceStart(), Kind: kind, PID: p.pid, MsgTag: tag, Detail: detail})
}

// PID implements sim.Environment.
func (p *Proc) PID() sim.PID { return sim.PID(p.pid) }
