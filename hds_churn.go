package hds

import (
	"fmt"
	"slices"

	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// beat is the heartbeat payload.
type beat struct{}

// MsgTag implements sim.Tagger.
func (beat) MsgTag() string { return "BEAT" }

// heartbeater broadcasts one beat per period and restarts its chain after
// recovery (timer epochs keep exactly one chain live).
type heartbeater struct {
	env    sim.Environment
	period Time
	epoch  int
	heard  int
}

func (h *heartbeater) Init(env sim.Environment) {
	h.env = env
	env.Broadcast(beat{})
	env.SetTimer(h.period, h.epoch)
}

func (h *heartbeater) OnMessage(any) { h.heard++ }

func (h *heartbeater) OnTimer(tag int) {
	if tag != h.epoch {
		return // stale pre-outage timer
	}
	h.env.Broadcast(beat{})
	h.env.SetTimer(h.period, h.epoch)
}

func (h *heartbeater) OnRecover() {
	h.epoch++
	h.env.Broadcast(beat{})
	h.env.SetTimer(h.period, h.epoch)
}

// listener is a process that only counts the beats delivered to it: it
// never broadcasts or arms a timer, which keeps it off the event queue,
// and has nothing to restart after an outage, so it is no sim.Recoverer.
// Its whole state is the counter, so that n listeners are one slab of
// words (see runHeartbeat). The counter is an int because it cannot
// wrap: every OnMessage is one event the engine processed, and the engine
// stops at sim.Config.MaxEvents, itself an int.
type listener int

func (l *listener) Init(sim.Environment) {}
func (l *listener) OnMessage(any)        { *l++ }
func (l *listener) OnTimer(int)          {}

var (
	_ sim.Process   = (*heartbeater)(nil)
	_ sim.Recoverer = (*heartbeater)(nil)
	_ sim.Process   = (*listener)(nil)
)

// runHeartbeat executes the heartbeat workload under churn: every process
// beats (one broadcast) every Period, or only the first Beaters do, and
// churners cycle down and up. It cross-checks the engine's incremental
// Correct/EventuallyUp bookkeeping against the schedule-derived ground
// truth. On every run — truncated or not — the per-process delivery
// counters must sum to exactly the recorder's Delivered count: one
// OnMessage per delivery trace, the end-to-end accounting check on the
// lazy fan-out path. Complete runs are also judged for delivery liveness,
// read off the same counters (see VerifyHeartbeat). It also returns every
// process's delivery counter (the differential test compares them one by
// one).
func runHeartbeat(e Experiment, seed int64, rec *trace.Recorder) (Result, func(PID) int, error) {
	if err := e.IDs.Validate(); err != nil {
		return Result{}, nil, fmt.Errorf("hds: %w", err)
	}
	if len(e.Crashes) > 0 {
		return Result{}, nil, fmt.Errorf("hds: heartbeat takes a Churn spec, not Crashes")
	}
	if e.Period <= 0 {
		e.Period = 10
	}
	if e.Horizon == 0 {
		e.Horizon = 10 * e.Period
	}
	n := e.IDs.N()
	beaters := e.Beaters
	if beaters <= 0 || beaters > n {
		beaters = n
	}
	schedule, truth, err := FaultPattern(e.IDs, e.Churn, nil, e.Horizon)
	if err != nil {
		return Result{}, nil, err
	}
	if e.Net == nil {
		e.Net = sim.Async{MaxDelay: 8}
	}
	eng := sim.New(sim.Config{IDs: e.IDs, Net: e.Net, Seed: seed, Recorder: rec, MaxEvents: e.MaxEvents})
	// Two slabs, not n objects. A wave visits recipients in ascending pid
	// order and bumps one counter each; the listeners' counters are eight
	// to a cache line and 400 KB at n = 50,000, so they stay in L2 beside
	// the engine's fate tables, where n heartbeater structs did not.
	beats := make([]heartbeater, beaters)
	for i := range beats {
		beats[i] = heartbeater{period: e.Period}
		eng.AddProcess(&beats[i])
	}
	listeners := make([]listener, n-beaters)
	for i := range listeners {
		eng.AddProcess(&listeners[i])
	}
	heard := func(p PID) int {
		if int(p) < beaters {
			return beats[p].heard
		}
		return int(listeners[int(p)-beaters])
	}
	eng.ApplyChurn(schedule)

	eng.Run(e.Horizon)
	complete := eng.Stopped() != sim.StopMaxEvents
	if complete {
		// A truncated run's engine state is still consistent, but the
		// schedule may not have fully fired; only cross-check complete runs.
		if err := checkTruthConsistency(eng, truth); err != nil {
			return Result{}, nil, err
		}
	}
	stats := rec.Stats()
	heardSum := 0
	for p := 0; p < n; p++ {
		heardSum += heard(PID(p))
	}
	if heardSum != stats.Delivered {
		return Result{}, nil, fmt.Errorf(
			"hds: processes heard %d beats but the recorder delivered %d — fan-out accounting drift", heardSum, stats.Delivered)
	}
	if complete {
		if err := VerifyHeartbeat(truth, heard); err != nil {
			return Result{}, nil, err
		}
	}
	return Result{
		Processed:    eng.Processed(),
		Stopped:      eng.Stopped(),
		EventuallyUp: len(truth.EventuallyUp()),
		Correct:      len(truth.Correct()),
		Recoveries:   eng.Recoveries(),
		MaxQueue:     eng.MaxQueueLen(),
		Stats:        stats,
	}, heard, nil
}

// VerifyHeartbeat judges delivery liveness against the fault pattern:
// every eventually-up process heard at least one beat, heard(p) being p's
// delivery count. It is the large-n stand-in for the detector checkers,
// which a heartbeat-only workload cannot run, and the judgement a live run
// (the processes' own counters) and an offline replay of its trace
// (deliveries counted from the events) share.
func VerifyHeartbeat(truth *fd.GroundTruth, heard func(p PID) int) error {
	for _, p := range truth.EventuallyUp() {
		if heard(p) == 0 {
			return fmt.Errorf("hds: eventually-up process %d heard no beats", p)
		}
	}
	return nil
}

// checkTruthConsistency asserts that the engine's incremental fault
// bookkeeping (pending-crash counters, crash/recover schedule keys) agrees
// with the ground truth derived independently from the schedule. Any
// divergence means the engine's CorrectSet/EventuallyUpSet — the sets every
// checker verdict is relative to — has drifted from what actually happened.
func checkTruthConsistency(eng *sim.Engine, truth *fd.GroundTruth) error {
	if got, want := eng.CorrectSet(), truth.Correct(); !slices.Equal(got, want) {
		return fmt.Errorf("hds: engine CorrectSet %v disagrees with ground truth %v", got, want)
	}
	if got, want := eng.EventuallyUpSet(), truth.EventuallyUp(); !slices.Equal(got, want) {
		return fmt.Errorf("hds: engine EventuallyUpSet %v disagrees with ground truth %v", got, want)
	}
	return nil
}
