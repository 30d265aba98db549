package sim

// StepProcess is an algorithm for the synchronous model HSS[∅]: execution
// proceeds in lock-step steps. In each step every alive process first
// broadcasts (StepSend), then receives every message sent in the same step
// by processes that did not crash mid-broadcast (StepRecv). This is exactly
// the execution structure the paper's Fig. 7 HΣ implementation assumes.
type StepProcess interface {
	// StepSend returns the payload this process broadcasts in the step.
	StepSend(env Environment) any
	// StepRecv delivers every payload of the step that reached this
	// process, in sender order. The slice is valid only during the call.
	StepRecv(received []any)
}

// Lockstep runs a StepProcess on the event engine. HSS is not a second
// engine: a step is a timer period over fixed-delay links. Step k
// broadcasts at StepStart(k); every copy arrives one δ later; at StepEnd(k)
// the process hands its buffered inbox to StepRecv and arms the next
// step's broadcast. A crash during step k is the engine's
// CrashDuringBroadcast(p, StepStart(k), deliverProb): the step's broadcast
// reaches each peer independently with deliverProb, and the process —
// crashed before any copy arrives — receives nothing in that step.
// The engine must be configured with LockstepConfig.
type Lockstep struct {
	proc  StepProcess
	env   Environment
	inbox []any
}

// The lock-step timing: with δ = stepDelta a copy sent at a step's start
// arrives at +stepDelta, and the receive sub-phase runs at +stepRecv, after
// every copy; the next step starts stepPeriod after this one.
const (
	stepDelta  Time = 1
	stepRecv   Time = 2
	stepPeriod Time = 3

	tagStepSend = 0
	tagStepRecv = 1
)

// NewLockstep wraps p; register the result with Engine.AddProcess.
func NewLockstep(p StepProcess) *Lockstep { return &Lockstep{proc: p} }

// Init implements Process: step 1 starts at StepStart(1).
func (l *Lockstep) Init(env Environment) {
	l.env = env
	env.SetTimer(StepStart(1), tagStepSend)
}

// OnMessage implements Process: buffer the copy until the receive sub-phase.
func (l *Lockstep) OnMessage(payload any) { l.inbox = append(l.inbox, payload) }

// OnTimer implements Process.
func (l *Lockstep) OnTimer(tag int) {
	if tag == tagStepSend {
		l.env.Broadcast(l.proc.StepSend(l.env))
		l.env.SetTimer(stepRecv, tagStepRecv)
		return
	}
	l.proc.StepRecv(l.inbox)
	l.inbox = l.inbox[:0]
	l.env.SetTimer(stepPeriod-stepRecv, tagStepSend)
}

// LockstepConfig returns cfg set up to run steps lock-step steps of
// Lockstep processes: the network is the fixed-delay link a step is built
// on, and MaxEvents covers the steps — a step costs each process alive at
// its start at most two timers and n copies — so the guard trips only if
// the run goes past them.
func LockstepConfig(cfg Config, steps int) Config {
	n := cfg.IDs.N()
	cfg.Net = Timely{Delta: stepDelta}
	cfg.MaxEvents = steps*n*(n+2) + 1 // +1: the guard is checked before the horizon
	return cfg
}

// StepStart is the instant step k (1-based) broadcasts.
func StepStart(k int) Time { return stepPeriod*Time(k-1) + 1 }

// StepEnd is the instant step k's receive sub-phase runs; Run(StepEnd(k))
// executes steps 1..k.
func StepEnd(k int) Time { return stepPeriod * Time(k) }

// StepOf is the step instant t belongs to: the k with
// StepStart(k) ≤ t ≤ StepEnd(k), and 0 before step 1.
func StepOf(t Time) int { return int((t + stepPeriod - 1) / stepPeriod) }
