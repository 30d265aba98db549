package hruntime

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options configure a Cluster.
type Options struct {
	// MinDelay/MaxDelay bound each copy's delivery latency.
	// Defaults: 200µs .. 2ms.
	MinDelay, MaxDelay time.Duration
	// GST, when positive, enables partially synchronous behaviour: copies
	// sent before start+GST are dropped with probability PreLoss (0 keeps
	// links reliable, as the consensus layer requires) or delayed up to
	// 4×MaxDelay; copies sent after arrive within MaxDelay.
	GST     time.Duration
	PreLoss float64
	// Unit is the real-time length of one abstract time unit (default
	// 1ms): Proc.Now, Proc.SetTimer and every trace timestamp count in it,
	// so a live trace has one time base.
	Unit time.Duration
	// Seed drives the delay/loss randomness and the per-process Rand.
	Seed int64
	// Recorder, when non-nil, receives trace events (a nil *trace.Recorder
	// discards them).
	Recorder *trace.Recorder
	// InboxSize is the per-process buffer (default 4096).
	InboxSize int
}

// Cluster is the live broadcast network for one run.
type Cluster struct {
	ids   ident.Assignment
	opts  Options
	start time.Time

	mu       sync.Mutex
	rng      *rand.Rand
	crashed  []bool
	isClosed bool

	inboxes []chan any
	done    chan struct{}
	wg      sync.WaitGroup
	closed  sync.Once
}

// NewCluster builds the network for the given identity assignment.
func NewCluster(ids ident.Assignment, opts Options) *Cluster {
	if err := ids.Validate(); err != nil {
		panic("hruntime: " + err.Error())
	}
	if opts.MinDelay <= 0 {
		opts.MinDelay = 200 * time.Microsecond
	}
	if opts.MaxDelay < opts.MinDelay {
		opts.MaxDelay = 10 * opts.MinDelay
	}
	if opts.Unit <= 0 {
		opts.Unit = time.Millisecond
	}
	if opts.InboxSize <= 0 {
		opts.InboxSize = 4096
	}
	c := &Cluster{
		ids:     ids,
		opts:    opts,
		start:   time.Now(),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		crashed: make([]bool, ids.N()),
		inboxes: make([]chan any, ids.N()),
		done:    make(chan struct{}),
	}
	for i := range c.inboxes {
		c.inboxes[i] = make(chan any, opts.InboxSize)
	}
	return c
}

// N returns the system size (the runtime knows it; whether an algorithm
// may use it is the algorithm's contract).
func (c *Cluster) N() int { return c.ids.N() }

// Inbox returns process p's receive channel.
func (c *Cluster) Inbox(p int) <-chan any { return c.inboxes[p] }

// Crash marks p crashed: its future broadcasts are ignored and nothing
// more is delivered to it. The crash and every broadcast are recorded
// under the cluster lock, so a trace never shows p broadcasting after its
// crash event.
func (c *Cluster) Crash(p int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.crashed[p] {
		c.crashed[p] = true
		c.opts.Recorder.Record(trace.Event{Time: c.sinceStart(), Kind: trace.KindCrash, PID: p})
	}
}

// Crashed reports whether p crashed.
func (c *Cluster) Crashed(p int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed[p]
}

// Broadcast sends payload from process `from` to every process including
// the sender, each copy after its own random delay. Crashed senders are
// silently ignored (they "take no steps").
func (c *Cluster) Broadcast(from int, payload any) {
	c.mu.Lock()
	if c.crashed[from] || c.isClosed {
		c.mu.Unlock()
		return
	}
	type plan struct {
		to    int
		delay time.Duration
		drop  bool
	}
	plans := make([]plan, 0, len(c.inboxes))
	for to := range c.inboxes {
		d, ok := c.drawDelay()
		plans = append(plans, plan{to: to, delay: d, drop: !ok})
	}
	// Register deliveries while still holding the lock: Close sets
	// isClosed under the same lock before waiting, so no wg.Add can race
	// its wg.Wait.
	live := 0
	for _, pl := range plans {
		if !pl.drop {
			live++
		}
	}
	c.wg.Add(live)
	c.opts.Recorder.Record(trace.Event{Time: c.sinceStart(), Kind: trace.KindBroadcast, PID: from, MsgTag: tagOf(payload)})
	c.mu.Unlock()

	for _, pl := range plans {
		if pl.drop {
			continue
		}
		go c.deliver(pl.to, payload, pl.delay)
	}
}

// drawDelay picks one copy's latency; callers hold c.mu.
func (c *Cluster) drawDelay() (time.Duration, bool) {
	span := c.opts.MaxDelay - c.opts.MinDelay
	uniform := func(max time.Duration) time.Duration {
		if max <= 0 {
			return 0
		}
		return time.Duration(c.rng.Int63n(int64(max) + 1))
	}
	if c.opts.GST > 0 && time.Since(c.start) < c.opts.GST {
		if c.rng.Float64() < c.opts.PreLoss {
			return 0, false
		}
		return c.opts.MinDelay + uniform(4*c.opts.MaxDelay), true
	}
	return c.opts.MinDelay + uniform(span), true
}

func (c *Cluster) deliver(to int, payload any, after time.Duration) {
	defer c.wg.Done()
	t := time.NewTimer(after)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.done:
		return
	}
	c.mu.Lock()
	dead := c.crashed[to]
	c.mu.Unlock()
	if dead {
		return
	}
	select {
	case c.inboxes[to] <- payload:
		c.opts.Recorder.Record(trace.Event{Time: c.sinceStart(), Kind: trace.KindDeliver, PID: to, MsgTag: tagOf(payload)})
	case <-c.done:
	}
}

// Close stops all pending deliveries and waits for delivery goroutines to
// exit; subsequent broadcasts are ignored. It does not stop processes
// (Proc.Stop does) and never closes inbox channels.
func (c *Cluster) Close() {
	c.closed.Do(func() {
		c.mu.Lock()
		c.isClosed = true
		c.mu.Unlock()
		close(c.done)
	})
	c.wg.Wait()
}

// sinceStart is the run's clock: whole Units since NewCluster.
func (c *Cluster) sinceStart() int64 { return int64(time.Since(c.start) / c.opts.Unit) }

func tagOf(payload any) string {
	if t, ok := payload.(sim.Tagger); ok {
		return t.MsgTag()
	}
	return "?"
}
