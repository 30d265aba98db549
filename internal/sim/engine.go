package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"repro/internal/ident"
	"repro/internal/trace"
)

// Config describes one simulated system.
type Config struct {
	// IDs is the identity assignment; IDs.N() is the system size n.
	IDs ident.Assignment
	// Net is the network timing model. Defaults to Async{}.
	Net Model
	// Seed drives all randomness (delays, adversarial choices).
	Seed int64
	// KnownN exposes n to processes via Env.N. Only the Fig. 8 consensus
	// model HAS[t<n/2, HΩ] sets it; the paper's other algorithms run with
	// unknown membership.
	KnownN bool
	// Recorder, when non-nil, receives trace events. With a nil Recorder the
	// engine constructs no trace data at all: the hot path neither formats
	// details nor computes message tags.
	Recorder *trace.Recorder
	// MaxEvents caps the number of processed events as a runaway guard.
	// Defaults to 5,000,000.
	MaxEvents int
}

type eventKind int32

const (
	evTimer eventKind = iota + 1
	evCrash
	evRecover
	// evFanout is an in-flight broadcast's one entry: arg indexes the
	// engine's fanout table, and the entry's (time, seq) are those of the
	// earliest undelivered copy of the broadcast's current wave.
	evFanout
)

// event is stored by value in the queue; scheduling one costs no heap
// allocation beyond the queue slice's amortized growth. The struct is kept
// to 32 bytes: every sift step of the heap moves whole events. A
// broadcast's entry does not carry the payload: that sits in the fanout
// record arg names.
type event struct {
	time Time
	seq  uint64 // tie-break: FIFO among simultaneous events
	kind eventKind
	pid  int32
	arg  int32 // evTimer: timer tag; evFanout: fanout-table index
}

// before is the total queue order: (time, seq) lexicographically. seq is
// unique per engine, so the order is strict and runs are deterministic
// regardless of the heap's internal layout.
func (a *event) before(b *event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// eventQueue is a 4-ary min-heap of events by value. A wider fan-out trades
// a few extra comparisons per level for half the depth (and half the moves)
// of a binary heap, which wins on the deliver-heavy workloads here; keeping
// values instead of pointers removes the per-event allocation and the
// pointer chasing of container/heap.
type eventQueue []event

func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (q eventQueue) down(i int) {
	n := len(q)
	ev := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(&q[best]) {
				best = c
			}
		}
		if !q[best].before(&ev) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = ev
}

// StopReason reports why the most recent Run/RunUntil call returned.
// Callers that must distinguish a quiescent execution from a truncated one
// (the MaxEvents runaway guard) check Stopped after the run; experiment
// drivers treat StopMaxEvents as an error.
type StopReason int

const (
	// StopNone: the engine has not run yet.
	StopNone StopReason = iota
	// StopQuiescent: the event queue drained — nothing can ever happen
	// again; the execution's suffix is silent.
	StopQuiescent
	// StopHorizon: the next event lies beyond the `until` horizon.
	StopHorizon
	// StopPredicate: the RunUntil early-exit predicate returned true.
	StopPredicate
	// StopMaxEvents: the MaxEvents runaway guard tripped — the run was
	// truncated and its results must not be read as a complete execution.
	StopMaxEvents
)

var stopNames = map[StopReason]string{
	StopNone:      "not-run",
	StopQuiescent: "quiescent",
	StopHorizon:   "horizon",
	StopPredicate: "predicate",
	StopMaxEvents: "max-events",
}

// String returns the lowercase reason name.
func (s StopReason) String() string {
	if name, ok := stopNames[s]; ok {
		return name
	}
	return fmt.Sprintf("stop(%d)", int(s))
}

// schedKey orders schedule entries for one process by (time, seq) — the
// same total order the event queue pops in — so the engine can answer
// "which of this process's crash/recover events fires last" without
// rescanning the queue.
type schedKey struct {
	t   Time
	seq int64
	set bool
}

func (k schedKey) after(o schedKey) bool {
	return k.t > o.t || (k.t == o.t && k.seq > o.seq)
}

// latest keeps the later of *k and o.
func (k *schedKey) latest(o schedKey) {
	if !k.set || o.after(*k) {
		*k = o
	}
}

// Engine runs one execution. Create it with New, attach processes with
// AddProcess, optionally schedule crashes, then Run. Engines are not safe
// for concurrent use; all determinism comes from the single event queue.
// Distinct engines share nothing mutable, so independent engines may run
// concurrently (see the sweep package).
type Engine struct {
	cfg   Config
	ids   ident.Assignment
	rng   *rand.Rand
	rec   *trace.Recorder
	queue eventQueue
	seq   uint64
	now   Time
	procs []Process
	envs  []*Env
	// retain caches rec.Retaining() for the run: when the recorder keeps
	// statistics only, the engine skips all per-event tag/detail formatting
	// (broadcast tags are still computed — the ByTag statistic needs them).
	retain  bool
	crashed []bool
	// everCrashed[p] is sticky: recovery clears crashed[p] but never this.
	// CorrectSet ("correct = never crashes") keys off it.
	everCrashed []bool
	// faults holds the fault bookkeeping of the processes that ever had a
	// crash, recovery or partial crash scheduled — typically a small share
	// of a large population — and faultIdx[p] is p's index in it plus one,
	// 0 for a process with no record. See fault and faultFor.
	faultIdx   []int32
	faults     []faultRec
	afterEvent []func(now Time, p PID)
	processed  int
	recoveries int
	started    bool
	stopped    StopReason
	// Fan-out state (fanout.go). fanSrc/fanRand are the engine's one
	// reusable per-copy fate stream; fanouts/freeFans the table of in-flight
	// broadcasts and its freelist; bcasts keys fate streams; perLink/linkNet
	// cache the Net's LinkModel assertion for the per-copy hot path.
	fanSrc   fanSource
	fanRand  *rand.Rand
	fanouts  []fanoutRec
	freeFans []int32
	bcasts   uint64
	perLink  bool
	linkNet  LinkModel
	// Fate tables (fanout.go): freeFates is their freelist, fateBytes the
	// bytes handed out to in-flight broadcasts right now, fateBudget the
	// bound on it (fateTableBudget; a field only so tests can force the
	// rescan fallback). fateEvals counts copyFate calls, waveWords the
	// table words waves loaded.
	freeFates  [][]byte
	fateBytes  int
	fateBudget int
	fateEvals  uint64
	waveWords  uint64
	// tally holds the events a stats-only recorder gets as counts, not yet
	// added to it (flushTally).
	tally tally
	// done is the active RunUntil predicate. It is evaluated after every
	// event, and a delivered copy is one: deliverWave reads it here to stop
	// between two copies of a wave.
	done func() bool
	// parked is the process whose firing timer's entry is still at the
	// heap root, -1 when none (fireTimer, setTimer).
	parked PID
	// maxQueue is the high-water mark of the event queue: it tracks
	// in-flight broadcasts, not in-flight copies.
	maxQueue int
	// curSeq is the seq of the event being processed (-1 during start), so
	// mid-event state changes (partial crashes) order correctly against
	// scheduled events at the same instant.
	curSeq int64
}

// tally counts the deliveries, drops and fired timers of a run in plain
// ints: what a retaining recorder gets as events, any other gets as one
// Count per kind when RunUntil returns.
type tally struct {
	delivered, dropped, timers int
}

type partialCrash struct {
	after       Time
	deliverProb float64
}

// faultRec is one process's fault bookkeeping.
type faultRec struct {
	// pendingCrash counts the process's evCrash events still in the queue,
	// so CorrectSet is O(n) instead of rescanning the queue per call.
	pendingCrash int
	// lastCrash/lastRecover hold the (time, seq) of the latest scheduled or
	// executed crash/recover; EventuallyUpSet compares them to decide the
	// process's final state without rescanning the queue.
	lastCrash   schedKey
	lastRecover schedKey
	// partial, when set, makes the process's next broadcast at or after the
	// stored time partial: each copy is delivered independently with the
	// stored probability, then the process crashes. Quiescence disarms
	// unfired arms: a process that never broadcasts after `after` never
	// crashes.
	partial *partialCrash
}

// fault returns p's fault record, or nil if nothing was ever scheduled for
// p. The pointer is into e.faults: use it before the next faultFor.
func (e *Engine) fault(p PID) *faultRec {
	if i := e.faultIdx[p]; i > 0 {
		return &e.faults[i-1]
	}
	return nil
}

// faultFor returns p's fault record, creating it on first use.
func (e *Engine) faultFor(p PID) *faultRec {
	if e.faultIdx[p] == 0 {
		e.faults = append(e.faults, faultRec{})
		e.faultIdx[p] = int32(len(e.faults))
	}
	return &e.faults[e.faultIdx[p]-1]
}

// Recoverer is implemented by processes that restart activity after a
// recovery — typically re-arming their timer chains, which break while the
// process is down (timers that fire during downtime are dropped). The
// engine calls OnRecover when an evRecover event revives the process;
// processes that do not implement it simply resume receiving messages and
// any still-pending timers.
type Recoverer interface {
	OnRecover()
}

// New builds an engine for the given configuration. It panics on an invalid
// identity assignment, which is an experiment-setup programming error.
func New(cfg Config) *Engine {
	if err := cfg.IDs.Validate(); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	if cfg.Net == nil {
		cfg.Net = Async{}
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 5_000_000
	}
	n := cfg.IDs.N()
	e := &Engine{
		cfg:         cfg,
		ids:         cfg.IDs,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		rec:         cfg.Recorder,
		procs:       make([]Process, 0, n),
		envs:        make([]*Env, 0, n),
		crashed:     make([]bool, n),
		everCrashed: make([]bool, n),
		faultIdx:    make([]int32, n),
		curSeq:      -1,
		parked:      -1,
		fateBudget:  fateTableBudget,
	}
	e.fanRand = rand.New(&e.fanSrc)
	e.linkNet, e.perLink = cfg.Net.(LinkModel)
	return e
}

// AddProcess binds the algorithm instance for the next unbound process
// index and returns that index. Engines require exactly n processes before
// Run; Init is deferred until the run starts so that all processes begin
// together at time 0.
func (e *Engine) AddProcess(p Process) PID {
	if e.started {
		panic("sim: AddProcess after run started")
	}
	if len(e.procs) >= e.ids.N() {
		panic("sim: more processes than identities")
	}
	e.procs = append(e.procs, p)
	e.envs = append(e.envs, &Env{eng: e, pid: PID(len(e.procs) - 1)})
	return PID(len(e.procs) - 1)
}

// Env returns the environment of process p, mainly so tests and checkers
// can read Now/ID through the same lens the process does.
func (e *Engine) Env(p PID) *Env { return e.envs[p] }

// IDs returns the identity assignment.
func (e *Engine) IDs() ident.Assignment { return e.ids }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// CrashAt schedules process p to crash at time t: from then on it takes no
// steps, receives nothing, and its broadcasts are ignored (until a later
// RecoverAt, if any). Times in the past are clamped to the current virtual
// time — scheduling can never rewind the clock.
func (e *Engine) CrashAt(p PID, t Time) {
	if t < e.now {
		t = e.now
	}
	f := e.faultFor(p)
	f.pendingCrash++
	f.lastCrash.latest(schedKey{t: t, seq: int64(e.seq), set: true})
	e.push(event{time: t, kind: evCrash, pid: int32(p)})
}

// CrashSchedule registers a whole crash schedule, applying the entries in
// ascending PID order. Simultaneous events are tie-broken by registration
// sequence, so scheduling crashes directly from a Go map range would bake
// the runtime's randomized iteration order into the event queue — and from
// there into trace bytes. This is the one deterministic way to feed a
// map-shaped schedule to the engine.
func (e *Engine) CrashSchedule(sched map[PID]Time) {
	pids := make([]PID, 0, len(sched))
	for p := range sched {
		pids = append(pids, p)
	}
	slices.Sort(pids)
	for _, p := range pids {
		e.CrashAt(p, sched[p])
	}
}

// RecoverAt schedules process p to recover at time t: if it is down at that
// instant it resumes taking steps and receiving messages. State held in the
// Process value survives the outage (crash = pause plus message loss);
// messages delivered and timers fired while down are lost. Processes that
// implement Recoverer get an OnRecover callback to restart their timer
// chains. Times in the past are clamped to the current virtual time.
func (e *Engine) RecoverAt(p PID, t Time) {
	if t < e.now {
		t = e.now
	}
	e.faultFor(p).lastRecover.latest(schedKey{t: t, seq: int64(e.seq), set: true})
	e.push(event{time: t, kind: evRecover, pid: int32(p)})
}

// CrashDuringBroadcast makes process p crash during its first broadcast at
// or after time `after`: each copy of that final broadcast is delivered
// independently with probability deliverProb (the "arbitrary subset" of the
// model), and p is crashed immediately afterwards.
func (e *Engine) CrashDuringBroadcast(p PID, after Time, deliverProb float64) {
	e.faultFor(p).partial = &partialCrash{after: after, deliverProb: deliverProb}
}

// Crashed reports whether p is down right now (crashed and not yet
// recovered).
func (e *Engine) Crashed(p PID) bool { return e.crashed[p] }

// EverCrashed reports whether p has crashed at least once, recovered or
// not.
func (e *Engine) EverCrashed(p PID) bool { return e.everCrashed[p] }

// Recoveries returns the number of recover events executed so far.
func (e *Engine) Recoveries() int { return e.recoveries }

// correct reports whether p belongs to the ground-truth Correct set under
// the paper's strict reading: p never crashes — no crash executed, none
// scheduled, and no live CrashDuringBroadcast arm. An arm is live until it
// fires or the run quiesces; a quiescent run can never broadcast again, so
// an armed process that never broadcast after `after` never crashes and is
// disarmed (and correct) from that point on.
func (e *Engine) correct(p PID) bool {
	f := e.fault(p)
	return f == nil || (!e.everCrashed[p] && f.pendingCrash == 0 && f.partial == nil)
}

// CorrectSet returns the indexes of processes that never crash — the
// ground truth Correct set, assuming all scheduled crashes eventually fire.
// Checkers use it; algorithms cannot. Pending crashes are tracked
// incrementally, so the call is O(n) regardless of queue depth. Under
// crash-recovery schedules a process that crashes and recovers is NOT
// correct in this strict sense; see EventuallyUpSet for the weaker class.
func (e *Engine) CorrectSet() []PID {
	return e.pidsWhere(e.correct)
}

// pidsWhere returns the processes that satisfy keep, in index order, or nil
// if none does. Nearly every process satisfies the two predicates it
// serves, so the result is allocated once, at the first hit, with room for
// all the processes after it, instead of grown by doubling — at n = 50,000
// the difference is a megabyte of garbage at the moment a run's memory
// peaks.
func (e *Engine) pidsWhere(keep func(PID) bool) []PID {
	var out []PID
	for p := range e.crashed {
		if keep(PID(p)) {
			if out == nil {
				out = make([]PID, 0, len(e.crashed)-p)
			}
			out = append(out, PID(p))
		}
	}
	return out
}

// EventuallyUpSet returns the processes whose final state is up, assuming
// all scheduled crash/recover events fire: the never-crashing processes
// plus those whose latest recovery is scheduled after their latest crash.
// In crash-stop executions it equals CorrectSet. Failure-detector classes
// under churn are stated relative to this set — a detector can only
// converge to the processes that are eventually permanently up.
func (e *Engine) EventuallyUpSet() []PID {
	return e.pidsWhere(func(p PID) bool {
		if e.correct(p) {
			return true
		}
		// A live arm is a crash with an unknowable future time: it outranks
		// any already-scheduled recovery.
		f := e.fault(p)
		return f.partial == nil && f.lastRecover.set && f.lastRecover.after(f.lastCrash)
	})
}

// CorrectIDs returns I(Correct), the multiset of identifiers of correct
// processes.
func (e *Engine) CorrectIDs() []ident.ID {
	var out []ident.ID
	for _, p := range e.CorrectSet() {
		out = append(out, e.ids[p])
	}
	return out
}

// AfterEvent registers an observer invoked after every processed event,
// with the then-current virtual time and the process the event concerned
// (p = -1 for the initial time-0 notification, where every process just
// ran Init). Property checkers use it to sample failure-detector outputs
// exactly when they can change: a process's output may change only during
// its own events or when virtual time advances. An observer that reads a
// stats-only recorder sees Delivered, Dropped and Timers short of what the
// Run/RunUntil call in progress has processed; they are exact once it has
// returned.
func (e *Engine) AfterEvent(f func(now Time, p PID)) {
	e.afterEvent = append(e.afterEvent, f)
}

// Processed returns the number of events processed so far.
func (e *Engine) Processed() int { return e.processed }

// MaxQueueLen returns the event queue's high-water mark (entries, not
// bytes). It grows with in-flight broadcasts plus timers and schedules —
// not with in-flight message copies — which is the measurable witness that
// population size is not a memory dimension; the population-scaling
// experiment reports it per row.
func (e *Engine) MaxQueueLen() int { return e.maxQueue }

// FateEvals returns how many copy fates the engine has computed so far —
// one per copy when every broadcast carried a fate table, one per copy per
// wave for those that did not. It is a deterministic function of the
// configuration, like every other counter here.
func (e *Engine) FateEvals() uint64 { return e.fateEvals }

// WaveWords returns how many 8-byte fate-table words delivery waves have
// loaded so far: at most ⌈n/8⌉ per wave of a broadcast that carries a
// table, where selecting the wave's copies byte by byte would visit n. Like
// FateEvals it is a deterministic function of the configuration.
func (e *Engine) WaveWords() uint64 { return e.waveWords }

// Stopped reports why the most recent Run/RunUntil call returned. Callers
// must check for StopMaxEvents before trusting a run's results: the guard
// silently truncates the execution, and a truncated run is
// indistinguishable from a quiescent one by event count alone.
func (e *Engine) Stopped() StopReason { return e.stopped }

// Run processes events until the queue is empty, virtual time would exceed
// `until`, or the MaxEvents guard trips. It returns the number of events
// processed during this call; Stopped reports which of the three ended it.
func (e *Engine) Run(until Time) int {
	return e.RunUntil(until, nil)
}

// RunUntil is Run with an early-exit predicate, evaluated after every
// event; it returns the number of events processed during this call.
func (e *Engine) RunUntil(until Time, done func() bool) int {
	e.start()
	startProcessed := e.processed
	e.done = done
	e.stopped = StopQuiescent
	for len(e.queue) > 0 {
		if e.processed >= e.cfg.MaxEvents {
			e.stopped = StopMaxEvents
			break
		}
		if e.queue[0].time > until {
			e.stopped = StopHorizon
			break
		}
		if r := e.step(); r != StopNone {
			e.stopped = r
			break
		}
	}
	e.done = nil
	e.flushTally()
	if e.stopped == StopQuiescent {
		// Quiescence: no event will ever be processed again, so no process
		// will ever broadcast again — unfired CrashDuringBroadcast arms can
		// never fire. Disarm them: a process that never broadcasts after
		// `after` never crashes, and belongs in the Correct set.
		for i := range e.faults {
			e.faults[i].partial = nil
		}
	}
	return e.processed - startProcessed
}

// start initializes all processes at time 0 (idempotent).
func (e *Engine) start() {
	if e.started {
		return
	}
	if len(e.procs) != e.ids.N() {
		panic(fmt.Sprintf("sim: %d processes bound, need %d", len(e.procs), e.ids.N()))
	}
	e.started = true
	e.retain = e.rec.Retaining()
	for p, proc := range e.procs {
		if !e.crashed[p] {
			proc.Init(e.envs[p])
		}
	}
	e.notifyAfter(-1)
}

// step processes the single earliest queue entry and reports whether the
// run must stop (StopNone to continue): a wave entry can trip the
// MaxEvents guard or the RunUntil predicate between its copies, so the
// stop surfaces from inside the entry rather than from the outer loop.
// All trace construction sits behind the nil-recorder check, and all
// tag/detail formatting additionally behind the retention check: with
// tracing off the engine formats nothing and computes no tags, and with a
// stats-only recorder it counts kinds without building strings.
func (e *Engine) step() StopReason {
	ev := e.queue[0]
	e.now = ev.time
	pid := PID(ev.pid)
	if ev.kind == evTimer && !e.crashed[pid] {
		e.fireTimer(ev)
		return e.afterStep(pid)
	}
	e.pop()
	if ev.kind == evFanout {
		// Per-copy accounting (processed, curSeq, observers, the done
		// predicate) happens inside the wave, per delivered copy.
		return e.deliverWave(ev)
	}
	e.curSeq = int64(ev.seq)
	e.processed++
	switch ev.kind {
	case evCrash:
		e.fault(pid).pendingCrash--
		if !e.crashed[pid] {
			e.crashed[pid] = true
			e.everCrashed[pid] = true
			e.record(trace.KindCrash, int(pid), "", "")
		}
	case evRecover:
		if e.crashed[pid] {
			e.crashed[pid] = false
			e.recoveries++
			e.record(trace.KindRecover, int(pid), "", "")
			if r, ok := e.procs[pid].(Recoverer); ok {
				r.OnRecover()
			}
		}
	case evTimer:
		// A timer on a down process is dropped, exactly like a message
		// copy — and, like one, it leaves a trace: silently vanishing
		// timers made crash interleavings unreproducible from traces.
		var detail string
		if e.retain {
			detail = timerDetail(int(ev.arg))
		}
		e.record(trace.KindTimerDrop, int(pid), "", detail)
	}
	return e.afterStep(pid)
}

// afterStep notifies the observers of an event that concerned p and
// evaluates the RunUntil predicate.
func (e *Engine) afterStep(p PID) StopReason {
	e.notifyAfter(p)
	if e.done != nil && e.done() {
		return StopPredicate
	}
	return StopNone
}

// fireTimer runs a live process's timer handler with the timer's entry
// left at the heap root, parked: the process's first setTimer during the
// handler re-arms in place (see setTimer), and an entry the handler did
// not reuse is popped once it returns — before the observers and the
// predicate run, which therefore see the queue a pop-then-push engine
// would leave.
func (e *Engine) fireTimer(ev event) {
	e.curSeq = int64(ev.seq)
	e.processed++
	if e.retain {
		e.record(trace.KindTimer, int(ev.pid), "", timerDetail(int(ev.arg)))
	} else {
		e.tally.timers++
	}
	e.parked = PID(ev.pid)
	e.procs[ev.pid].OnTimer(int(ev.arg))
	if e.parked >= 0 {
		e.parked = -1
		e.pop()
	}
}

// timerDetails caches the "tag=N" detail strings for small timer tags, so
// traced timer events stop allocating one string per event. Tags are tiny
// in practice (module-multiplexed epochs); larger ones fall back to
// formatting.
var timerDetails = func() [64]string {
	var d [64]string
	for i := range d {
		d[i] = "tag=" + strconv.Itoa(i)
	}
	return d
}()

func timerDetail(tag int) string {
	if tag >= 0 && tag < len(timerDetails) {
		return timerDetails[tag]
	}
	return "tag=" + strconv.Itoa(tag)
}

func (e *Engine) notifyAfter(p PID) {
	for _, f := range e.afterEvent {
		f(e.now, p)
	}
}

// broadcast fans payload out to every process: one scan decides every
// copy's fate (survival of a partial crash, loss, delay — each from the
// copy's own keyed stream) and reserves the scheduled copies' seqs, and one
// queue entry naming one fanout record carries the broadcast from then on
// (fanout.go). A broadcast none of whose copies is scheduled leaves nothing
// behind.
func (e *Engine) broadcast(from PID, payload any) {
	if e.crashed[from] {
		return
	}
	flt := e.fault(from)
	partial := flt != nil && flt.partial != nil && e.now >= flt.partial.after
	prob := 0.0
	if partial {
		prob = flt.partial.deliverProb
	}
	var tag string
	if e.rec != nil {
		// The tag is computed even for stats-only recorders: the per-tag
		// broadcast counts (Stats.ByTag) depend on it. tagOf is
		// allocation-free for Tagger payloads and cached otherwise.
		tag = tagOf(payload)
		e.rec.Record(trace.Event{Time: e.now, Kind: trace.KindBroadcast, PID: int(from), MsgTag: tag})
	}
	f := fanoutRec{
		key:     e.nextFanKey(),
		sent:    e.now,
		from:    int32(from),
		partial: partial,
		prob:    prob,
		payload: payload,
		fates:   e.allocFates(),
	}
	scheduled, firstK := e.fanoutScan(&f, tag)
	if scheduled == 0 {
		e.freeFateTable(f.fates)
	} else {
		f.baseSeq = e.seq
		e.seq += uint64(scheduled)
		e.requeue(event{time: e.now + f.delay, seq: f.baseSeq + uint64(firstK), kind: evFanout, pid: int32(from), arg: e.allocFanout(f)})
	}
	if partial {
		flt.partial = nil
		e.crashed[from] = true
		e.everCrashed[from] = true
		// The crash happens during the event being processed: key it by the
		// current event's (time, seq) so recoveries scheduled at the same
		// instant order against it exactly as the queue will pop them. A
		// crash scheduled even later (CrashAt) keeps precedence.
		flt.lastCrash.latest(schedKey{t: e.now, seq: e.curSeq, set: true})
		e.record(trace.KindCrash, int(from), "", "mid-broadcast")
	}
}

func (e *Engine) setTimer(p PID, d Time, tag int) {
	if d < 1 {
		d = 1
	}
	if tag != int(int32(tag)) {
		panic("sim: timer tag exceeds 32 bits")
	}
	if p != e.parked {
		e.push(event{time: e.now + d, kind: evTimer, pid: int32(p), arg: int32(tag)})
		return
	}
	// Re-arm in place: the root still holds p's fired evTimer entry, so the
	// new timer only rewrites its time, seq and tag and sifts down — one
	// heap pass where a pop and a push take two. The pop order is the one
	// they give: everything pushed since the entry was parked has time >=
	// now and a later seq, so the parked entry stayed the minimum, and the
	// heap orders (time, seq) totally.
	e.parked = -1
	root := &e.queue[0]
	root.time, root.seq, root.arg = e.now+d, e.seq, int32(tag)
	e.seq++
	e.queue.down(0)
	e.noteQueueLen()
}

// push enqueues an event, clamping its time to the present: virtual time is
// monotone by construction, no matter how hostile a Model's delays or how
// stale a crash/recover schedule is.
func (e *Engine) push(ev event) {
	if ev.time < e.now {
		ev.time = e.now
	}
	ev.seq = e.seq
	e.seq++
	e.enqueue(ev)
}

// requeue enqueues an event that already carries its seq — a fanout wave
// entry keyed by the seq reserved for its earliest undelivered copy. The
// seq counter is untouched: wave entries reuse seqs from their broadcast's
// reserved interval, never mint new ones.
func (e *Engine) requeue(ev event) {
	if ev.time < e.now {
		ev.time = e.now
	}
	e.enqueue(ev)
}

func (e *Engine) enqueue(ev event) {
	e.queue = append(e.queue, ev)
	e.queue.up(len(e.queue) - 1)
	e.noteQueueLen()
}

// noteQueueLen raises the high-water mark to the queue's length, a parked
// timer entry not counted: the mark is what a pop-then-push engine would
// have held, and that engine has popped it.
func (e *Engine) noteQueueLen() {
	n := len(e.queue)
	if e.parked >= 0 {
		n--
	}
	if n > e.maxQueue {
		e.maxQueue = n
	}
}

func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	e.queue = q[:n]
	if n > 1 {
		e.queue.down(0)
	}
	return top
}

// record adds one engine event at the current time. A recorder that keeps
// statistics only gets the bare kind and pid — what it counts — so callers
// pass tag and detail unconditionally; a detail that costs something to
// build (timerDetail) they build only when e.retain.
func (e *Engine) record(kind trace.Kind, pid int, tag, detail string) {
	if e.rec == nil {
		return
	}
	if !e.retain {
		tag, detail = "", ""
	}
	e.rec.Record(trace.Event{Time: e.now, Kind: kind, PID: pid, MsgTag: tag, Detail: detail})
}

// Note records a custom trace event on behalf of process p; algorithms use
// it (via Env.Note) to mark decisions and failure-detector output changes.
func (e *Engine) note(p PID, kind trace.Kind, tag, detail string) {
	e.rec.Record(trace.Event{Time: e.now, Kind: kind, PID: int(p), MsgTag: tag, Detail: detail})
}

// tagCache memoizes the reflected type name of untagged payloads. It is a
// process-wide sync.Map because engines may run concurrently in sweep
// workers; payload type universes are tiny, so the map stays small and
// reads are lock-free.
var tagCache sync.Map // reflect.Type -> string

func tagOf(payload any) string {
	if t, ok := payload.(Tagger); ok {
		return t.MsgTag()
	}
	rt := reflect.TypeOf(payload)
	if s, ok := tagCache.Load(rt); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%T", payload)
	tagCache.Store(rt, s)
	return s
}
