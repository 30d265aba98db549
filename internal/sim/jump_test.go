package sim

import (
	"reflect"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// ticker is a process with one heartbeat: armed at phase, re-armed every
// period under a Snooze hint that ends at until, and every after once a
// firing is dispatched. A loud ticker broadcasts on every dispatch, so a
// tick the engine jumps over instead of dispatching shows in Stats and in
// the queue. A message ends the hint; the ticker gives it again while it
// has not been dispatched. A recovery re-arms the heartbeat as it stood.
type ticker struct {
	env                  Environment
	phase, period, after Time
	until                Time
	loud                 bool
	dispatched, received int
}

func (k *ticker) Init(env Environment) {
	k.env = env
	env.SetTimer(k.phase, 0)
	env.Snooze(k.period, 0, k.until)
}

func (k *ticker) OnTimer(tag int) {
	k.dispatched++
	if k.loud {
		k.env.Broadcast(k.dispatched)
	}
	k.env.SetTimer(k.after, tag)
}

func (k *ticker) OnMessage(any) {
	k.received++
	k.hint()
}

func (k *ticker) OnRecover() {
	if k.dispatched > 0 {
		k.env.SetTimer(k.after, 0)
		return
	}
	k.env.SetTimer(k.period, 0)
	k.hint()
}

func (k *ticker) hint() {
	if k.dispatched == 0 {
		k.env.Snooze(k.period, 0, k.until)
	}
}

// jumpState is what the differential compares of one finished run: every
// engine observable, the final seq, the queue in pop order (two heaps with
// the same entries may lay them out differently) and what each process
// saw.
type jumpState struct {
	ran        []int
	processed  int
	now        Time
	stopped    StopReason
	maxQueue   int
	stats      trace.Stats
	seq        uint64
	queue      []event
	dispatched []int
	received   []int
}

// popOrder returns the queue's entries in the order the engine pops them.
func popOrder(q eventQueue) []event {
	h := append(eventQueue(nil), q...)
	var out []event
	for len(h) > 0 {
		out = append(out, h[0])
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		if len(h) > 1 {
			h.down(0)
		}
	}
	return out
}

// jumpCase is one hand-built timer set and the run segments it goes
// through: each segment is one RunUntil to its horizon, with the predicate
// when stopAt is set (stop once that many dispatches happened in total).
type jumpCase struct {
	name      string
	tickers   []ticker
	maxEvents int
	crash     []ChurnEvent
	horizons  []Time
	stopAt    int
	// jumped is the number of ticks the engine must jump over: whole
	// cycles less one, in every stretch where the queue is closed-form.
	jumped uint64
}

func (c jumpCase) run(observe bool) (jumpState, uint64) {
	rec := &trace.Recorder{}
	eng := New(Config{IDs: ident.Unique(len(c.tickers)), Seed: 7, MaxEvents: c.maxEvents, Recorder: rec})
	ks := make([]*ticker, len(c.tickers))
	for i := range c.tickers {
		k := c.tickers[i]
		ks[i] = &k
		eng.AddProcess(ks[i])
	}
	eng.ApplyChurn(c.crash)
	if observe {
		eng.AfterEvent(func(Time, PID) {})
	}
	var done func() bool
	if c.stopAt > 0 {
		done = func() bool {
			n := 0
			for _, k := range ks {
				n += k.dispatched
			}
			return n >= c.stopAt
		}
	}
	var s jumpState
	for _, h := range c.horizons {
		s.ran = append(s.ran, eng.RunUntil(h, done))
	}
	s.processed, s.now, s.stopped, s.maxQueue = eng.Processed(), eng.Now(), eng.Stopped(), eng.MaxQueueLen()
	s.stats, s.seq, s.queue = rec.Stats(), eng.seq, popOrder(eng.queue)
	for _, k := range ks {
		s.dispatched = append(s.dispatched, k.dispatched)
		s.received = append(s.received, k.received)
	}
	return s, eng.JumpedTicks()
}

// quiet returns n tickers of one period whose hints never end, armed at
// the given phases.
func quiet(period Time, phases ...Time) []ticker {
	ks := make([]ticker, len(phases))
	for i, ph := range phases {
		ks[i] = ticker{phase: ph, period: period, after: period, until: 1 << 40}
	}
	return ks
}

// TestJumpMatchesTickPath runs hand-built timer sets twice: as they run,
// where the engine may jump over whole cycles of covered ticks, and with a
// no-op AfterEvent observer, which keeps it on the tick path. Each case
// stops at a boundary a jump must not cross — the horizon, MaxEvents or a
// hint's until falling mid-cycle — or holds a queue no jump may touch:
// mixed periods, entries spread over more than a period, a crash or a
// recovery pending. Both runs must agree on the events each RunUntil
// processed, Processed, Now, Stopped, MaxQueueLen, Stats, the final seq,
// the queue in pop order and what every process was dispatched and
// received; the jumping run must jump exactly the ticks the case states,
// the observed one none.
//
// Verified to fail when k is the number of whole cycles instead of one
// less, when a hint's until does not bound k, and when MaxEvents does not.
func TestJumpMatchesTickPath(t *testing.T) {
	expiring := quiet(10, 1, 3, 3, 7)
	expiring[2].until, expiring[2].after, expiring[2].loud = 5_004, 13, true
	mixed := quiet(10, 2, 4)
	mixed = append(mixed, quiet(11, 6)...)
	churned := quiet(10, 2, 5, 9)
	cases := []jumpCase{
		{name: "horizon mid-cycle", tickers: quiet(10, 1, 3, 3, 7), horizons: []Time{10_005}, jumped: 3_992},
		{name: "span of exactly one period", tickers: quiet(10, 1, 11), horizons: []Time{10_000}, jumped: 1_994},
		{name: "max-events mid-cycle", tickers: quiet(10, 1, 3, 3, 7), maxEvents: 1_001, horizons: []Time{1 << 30}, jumped: 992},
		{name: "until mid-cycle", tickers: expiring, horizons: []Time{10_000}, jumped: 1_996},
		{name: "until mid-cycle, stopped by predicate", tickers: expiring, horizons: []Time{10_000}, stopAt: 3, jumped: 1_996},
		{name: "segments", tickers: quiet(7, 1, 2, 6), horizons: []Time{300, 301, 4_000, 4_000, 9_999}, jumped: 4_266},
		{name: "mixed periods", tickers: mixed, horizons: []Time{5_000}, jumped: 0},
		{name: "span over a period", tickers: quiet(10, 1, 95), horizons: []Time{5_000}, jumped: 976},
		{name: "crash and recovery pending", tickers: churned, crash: []ChurnEvent{{P: 1, At: 3_003}, {P: 1, At: 6_006, Recover: true}}, horizons: []Time{9_000}, jumped: 891},
	}
	var total uint64
	for _, c := range cases {
		got, jumped := c.run(false)
		want, observed := c.run(true)
		if observed != 0 {
			t.Errorf("%s: %d ticks jumped with an observer registered", c.name, observed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the jumping run differs from the tick path:\n got  %+v\n want %+v", c.name, got, want)
		}
		if jumped != c.jumped {
			t.Errorf("%s: %d ticks jumped, want %d", c.name, jumped, c.jumped)
		}
		total += jumped
	}
	if total == 0 {
		t.Fatal("no tick was jumped")
	}
}

// TestJumpRefuses sets up a queue the jump may take — two covered ticks
// within one period, carrying the last two seqs in time order — and then
// breaks one precondition at a time: each broken state must be left as it
// is, the intact one jumped. Verified to fail when any one of the checks is
// deleted but the one that the entry's time is below its hint's until,
// which the until bound on k already enforces.
func TestJumpRefuses(t *testing.T) {
	cases := []struct {
		name  string
		until Time
		edit  func(e *Engine)
		want  uint64
	}{
		{name: "intact", until: 1_000, want: 198},
		{name: "horizon one cycle away", until: 14},
		{name: "horizon before the last entry", until: 4},
		{name: "max-events one cycle away", until: 1_000, edit: func(e *Engine) { e.cfg.MaxEvents = 3 }},
		{name: "time decreasing in seq order", until: 1_000, edit: func(e *Engine) { e.queue[0].time, e.queue[1].time = 5, 3 }},
		{name: "span over a period", until: 1_000, edit: func(e *Engine) { e.queue[1].time = 14 }},
		{name: "seq older than the cycle", until: 1_000, edit: func(e *Engine) { e.seq++ }},
		{name: "mixed periods", until: 1_000, edit: func(e *Engine) { e.snoozes[1].period = 11 }},
		{name: "hint for another tag", until: 1_000, edit: func(e *Engine) { e.snoozes[1].tag = 1 }},
		{name: "hint ended", until: 1_000, edit: func(e *Engine) { e.snoozes[1].until = 5 }},
		{name: "process down", until: 1_000, edit: func(e *Engine) { e.crashed[1] = true }},
		{name: "crash pending", until: 1_000, edit: func(e *Engine) { e.CrashAt(1, 8) }},
		{name: "retaining recorder", until: 1_000, edit: func(e *Engine) { e.retain = true }},
		{name: "observer", until: 1_000, edit: func(e *Engine) { e.AfterEvent(func(Time, PID) {}) }},
	}
	for _, c := range cases {
		eng := New(Config{IDs: ident.Unique(2), Recorder: &trace.Recorder{}})
		for _, k := range quiet(10, 3, 5) {
			eng.AddProcess(&k)
		}
		eng.start()
		if c.edit != nil {
			c.edit(eng)
		}
		before := popOrder(eng.queue)
		eng.jump(c.until)
		if got := eng.JumpedTicks(); got != c.want {
			t.Errorf("%s: %d ticks jumped, want %d", c.name, got, c.want)
		}
		if c.want == 0 && !reflect.DeepEqual(popOrder(eng.queue), before) {
			t.Errorf("%s: the queue moved without a jump", c.name)
		}
	}
}
