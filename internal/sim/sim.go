package sim

import (
	"math/rand"

	"repro/internal/ident"
	"repro/internal/trace"
)

// Time is virtual time. Timer durations and network delays are measured in
// the same abstract units; processes execute their steps instantaneously.
type Time = int64

// PID is the internal index of a process in Π. It exists for the simulator,
// crash schedules, and checkers; algorithm code must not use it.
type PID int

// Process is an event-driven algorithm instance. The simulator calls Init
// exactly once before any other method, then OnMessage for every delivered
// message and OnTimer for every expired timer. Calls for one process are
// strictly sequential, so implementations need no locking.
type Process interface {
	// Init gives the process its environment. Implementations typically
	// broadcast an initial message or set an initial timer here.
	Init(env Environment)
	// OnMessage delivers a broadcast payload. The receiver cannot identify
	// the sender link, matching the model.
	OnMessage(payload any)
	// OnTimer fires a timer previously set with Environment.SetTimer.
	OnTimer(tag int)
}

// Environment is a process's handle on the system. The engine provides the
// real implementation (*Env); node composition wraps it so that stacked
// modules share one simulated process (see Node).
type Environment interface {
	// ID returns this process's identifier id(p) — the only identity
	// knowledge a process starts with.
	ID() ident.ID
	// N returns the system size n and whether it is known. Only models
	// that grant initial knowledge of n (the paper's §5.2) report ok.
	N() (n int, ok bool)
	// Now returns the current virtual time.
	Now() Time
	// Rand returns the run's deterministic random source.
	Rand() *rand.Rand
	// Broadcast sends payload to every process, including the caller.
	Broadcast(payload any)
	// SetTimer schedules OnTimer(tag) after d units (clamped to >= 1).
	// Timers are one-shot and tags must be non-negative.
	SetTimer(d Time, tag int)
	// Snooze is a hint about the process's pending timer tag: until
	// virtual time until, OnTimer(tag) would do exactly SetTimer(period,
	// tag) and nothing else — write no state, broadcast nothing, note
	// nothing. An implementation may then re-arm such a timer itself and
	// not call OnTimer: the engine records the firing as it records any
	// timer, re-arms it with the seq the handler's SetTimer would have
	// taken, and dispatches nothing, so every event, seq and trace byte is
	// the same. The hint holds until the first firing at or after until,
	// or until any other event reaches the process (a message copy,
	// another timer, a recovery or a crash) — whichever comes first; the
	// process gives it again at the end of that event if it still holds.
	// An implementation may ignore it, as the live runtime does.
	Snooze(period Time, tag int, until Time)
	// Note records a custom trace event (decision, detector change).
	Note(kind trace.Kind, tag, detail string)
	// Changed tells the engine that the process replaced one of its
	// outputs during the event being processed. A Signaller calls it in
	// every event in which an output a probe reads changes; the engine
	// then runs its AfterSignal observers after the event. A process that
	// is not a Signaller may call it; no probe relies on it. An
	// implementation without probes (the live runtime) ignores it.
	Changed()
	// PID returns the internal index, for traces and checkers only.
	PID() PID
}

// Signaller is implemented by a process that tells the engine when its
// outputs change. SignalsChanges returning true promises: every output a
// probe reads of this process changes only inside a call the engine makes
// into it (Init, OnMessage, OnTimer, OnRecover, a Node's Poll) that also
// calls Environment.Changed — never with the clock alone, as an oracle's
// does. A probe whose processes all signal samples each once at time 0
// and then after each event in which it signalled (fd.NewStreamProbe,
// Engine.AfterSignal); any other probe samples after every event and at
// every clock advance. A Node signals when every module does, so its
// modules are added before a probe over it is built.
type Signaller interface {
	SignalsChanges() bool
}

// Tagger is implemented by payloads that want a message-type tag in traces
// and statistics (e.g. "POLLING", "PH1"). Untagged payloads are traced with
// their Go type name.
type Tagger interface {
	MsgTag() string
}

// Env is the engine-backed Environment given to top-level processes.
type Env struct {
	eng *Engine
	pid PID
}

var _ Environment = (*Env)(nil)

// ID implements Environment.
func (e *Env) ID() ident.ID { return e.eng.ids[e.pid] }

// N implements Environment.
func (e *Env) N() (n int, ok bool) {
	if !e.eng.cfg.KnownN {
		return 0, false
	}
	return len(e.eng.ids), true
}

// Now implements Environment.
func (e *Env) Now() Time { return e.eng.now }

// Rand implements Environment. Event processing order is deterministic, so
// draws are reproducible per seed.
func (e *Env) Rand() *rand.Rand { return e.eng.rng }

// Broadcast implements Environment. A crashed process's broadcasts are
// ignored.
func (e *Env) Broadcast(payload any) { e.eng.broadcast(e.pid, payload) }

// SetTimer implements Environment.
func (e *Env) SetTimer(d Time, tag int) { e.eng.setTimer(e.pid, d, tag) }

// Snooze implements Environment.
func (e *Env) Snooze(period Time, tag int, until Time) { e.eng.snooze(e.pid, period, tag, until) }

// PID implements Environment.
func (e *Env) PID() PID { return e.pid }

// Changed implements Environment.
func (e *Env) Changed() { e.eng.changed[e.pid] = true }

// Note implements Environment.
func (e *Env) Note(kind trace.Kind, tag, detail string) {
	e.eng.note(e.pid, kind, tag, detail)
}
