package hds

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestRunChurnOHPReconverges(t *testing.T) {
	res, err := Experiment{
		Algo:  "ohp",
		IDs:   BalancedIDs(12, 4),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 40, Up: 60, Stagger: 7}, Horizon: 3000,
	}.Run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 12 {
		t.Errorf("EventuallyUp = %d, want 12 (every churner recovers)", res.EventuallyUp)
	}
	if res.Correct >= 12 {
		t.Errorf("Correct = %d, want < 12 (churners are not strictly correct)", res.Correct)
	}
	if res.Recoveries != 6 {
		t.Errorf("Recoveries = %d, want 6 (3 churners × 2 cycles)", res.Recoveries)
	}
	if res.TrustedStabilization < res.LastChange {
		t.Errorf("re-stabilization %d before the last fault-pattern change %d", res.TrustedStabilization, res.LastChange)
	}
	if res.Leader.ID == "" || res.Leader.Multiplicity == 0 {
		t.Errorf("no stabilized leader: %v", res.Leader)
	}
}

func TestRunChurnOHPFinalDown(t *testing.T) {
	// Churners that never come back degrade churn to crash-stop for them:
	// the detector must settle on the strictly smaller eventually-up set.
	res, err := Experiment{
		Algo:  "ohp",
		IDs:   BalancedIDs(8, 4),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 30, Up: 40, FinalDown: true}, Horizon: 3000,
	}.Run(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 6 || res.Correct != 6 {
		t.Errorf("EventuallyUp/Correct = %d/%d, want 6/6 (final-down churners leave for good)", res.EventuallyUp, res.Correct)
	}
	if res.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2 (first cycle only)", res.Recoveries)
	}
}

func TestRunHeartbeatChurnTruthConsistency(t *testing.T) {
	res, err := Experiment{
		Algo:  "heartbeat",
		IDs:   BalancedIDs(120, 12),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 10, Down: 20, Up: 25, FinalDown: true}, Horizon: 150,
	}.Run(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != sim.StopHorizon {
		t.Errorf("Stopped = %v, want horizon", res.Stopped)
	}
	if res.EventuallyUp != 90 || res.Correct != 90 {
		t.Errorf("EventuallyUp/Correct = %d/%d, want 90/90", res.EventuallyUp, res.Correct)
	}
	if res.Recoveries == 0 || res.Stats.TimerDrops == 0 {
		t.Errorf("scenario exercised no recoveries (%d) or timer drops (%d)", res.Recoveries, res.Stats.TimerDrops)
	}
}

// TestGuardSurfacedInDrivers pins the MaxEvents satellite at driver level:
// a truncated run must be reported, never silently read as complete.
func TestGuardSurfacedInDrivers(t *testing.T) {
	res, err := Experiment{
		Algo:  "heartbeat",
		IDs:   BalancedIDs(20, 4),
		Churn: ChurnSpec{Fraction: 0.2, Cycles: 1}, Horizon: 500, MaxEvents: 50,
	}.Run(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != sim.StopMaxEvents {
		t.Fatalf("Stopped = %v, want max-events", res.Stopped)
	}
	// The verifying runners turn the same condition into an error.
	_, err = Experiment{
		Algo:  "ohp",
		IDs:   BalancedIDs(12, 4),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 1}, Horizon: 3000, MaxEvents: 100,
	}.Run(5, nil)
	if err == nil || !strings.Contains(err.Error(), "MaxEvents") {
		t.Fatalf("RunChurnOHP on a guard-tripped run: err = %v, want MaxEvents error", err)
	}
}

// refHeartbeater and refRunHeartbeat are the heartbeat workload as it was
// before the listeners became a slab of counters: n heartbeater structs, a
// listen-only one told apart by beats=false. They are kept, body verbatim,
// as the reference TestHeartbeatMatchesReference compares runHeartbeat
// with; refRunHeartbeat additionally returns the per-process counters.
type refHeartbeater struct {
	env    sim.Environment
	period Time
	epoch  int
	heard  int
	beats  bool
}

func (h *refHeartbeater) Init(env sim.Environment) {
	h.env = env
	if !h.beats {
		return
	}
	env.Broadcast(beat{})
	env.SetTimer(h.period, h.epoch)
}

func (h *refHeartbeater) OnMessage(any) { h.heard++ }

func (h *refHeartbeater) OnTimer(tag int) {
	if tag != h.epoch {
		return // stale pre-outage timer
	}
	h.env.Broadcast(beat{})
	h.env.SetTimer(h.period, h.epoch)
}

func (h *refHeartbeater) OnRecover() {
	if !h.beats {
		return
	}
	h.epoch++
	h.env.Broadcast(beat{})
	h.env.SetTimer(h.period, h.epoch)
}

func refRunHeartbeat(e Experiment, seed int64, rec *trace.Recorder) (Result, func(PID) int, error) {
	if err := e.IDs.Validate(); err != nil {
		return Result{}, nil, fmt.Errorf("hds: %w", err)
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
	net := e.Net
	if net == nil {
		net = sim.Async{MaxDelay: 8}
	}
	eng := sim.New(sim.Config{IDs: e.IDs, Net: net, Seed: seed, Recorder: rec, MaxEvents: e.MaxEvents})
	// One slab, not n objects: a wave visits recipients in ascending pid
	// order, so the counters it bumps sit next to each other.
	beats := make([]refHeartbeater, n)
	for i := range beats {
		beats[i] = refHeartbeater{period: e.Period, beats: i < beaters}
		eng.AddProcess(&beats[i])
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
	heard := 0
	for i := range beats {
		heard += beats[i].heard
	}
	if heard != stats.Delivered {
		return Result{}, nil, fmt.Errorf(
			"hds: processes heard %d beats but the recorder delivered %d — fan-out accounting drift", heard, stats.Delivered)
	}
	if complete {
		if err := VerifyHeartbeat(truth, func(p PID) int { return beats[p].heard }); err != nil {
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
	}, func(p PID) int { return beats[p].heard }, nil
}

// TestHeartbeatMatchesReference runs the two-slab workload and the
// reference over populations from one process to a thousand, every way of
// splitting them into beaters and listeners (none listening, one beating,
// a third, Beaters past n), with and without churn, to the horizon and cut
// off mid-wave by MaxEvents, and demands the same result field for field,
// the same counter in every process, and the same binary trace byte for
// byte.
func TestHeartbeatMatchesReference(t *testing.T) {
	sizes := []struct {
		n, l    int
		horizon Time
		stagger Time // 0 at n = 1000: 250 staggered churners would outlast any short horizon
	}{
		{1, 1, 60, 1}, {7, 3, 60, 1}, {120, 12, 60, 1},
		{1000, 50, 7, 0}, // one beat and the recoveries': all beating is a million copies each
	}
	if testing.Short() {
		sizes = sizes[:3] // the race job: one goroutine, nothing n = 1000 adds for the detector
	}
	churns := []ChurnSpec{
		{},
		{Fraction: 0.25, Cycles: 1, Start: 1, Down: 2},
		{Fraction: 0.25, Cycles: 2, Start: 1, Down: 2, Up: 2, FinalDown: true},
	}
	type outcome struct {
		res   Result
		heard func(PID) int
		err   error
		trace []byte
	}
	// Both sides are called by name: detflow resolves a call through a func
	// value to every address-taken function of that arity, so passing
	// runHeartbeat as a value would put it behind every one-argument
	// callback of the certified API report.
	run := func(reference bool, e Experiment, seed int64) outcome {
		var buf bytes.Buffer
		rec := trace.NewSpillRecorder(trace.NewBinarySink(&buf), 0)
		var o outcome
		if reference {
			o.res, o.heard, o.err = refRunHeartbeat(e, seed, rec)
		} else {
			o.res, o.heard, o.err = runHeartbeat(e, seed, rec)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		o.trace = buf.Bytes()
		return o
	}
	// same runs e on both sides and compares everything observable; it
	// returns the (common) result, zero if both sides refused the run.
	same := func(name string, e Experiment, seed int64) Result {
		got, want := run(false, e, seed), run(true, e, seed)
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("%s: binary traces differ (%d bytes, reference %d)", name, len(got.trace), len(want.trace))
		}
		// A lone beater that churns can leave itself unheard by the
		// horizon: both sides must then refuse the run alike.
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Fatalf("%s: err = %v, reference err = %v", name, got.err, want.err)
		}
		if got.err != nil {
			return Result{}
		}
		if !reflect.DeepEqual(got.res, want.res) {
			t.Errorf("%s: result\n got %+v\nwant %+v", name, got.res, want.res)
		}
		for p := 0; p < e.IDs.N(); p++ {
			if g, w := got.heard(PID(p)), want.heard(PID(p)); g != w {
				t.Fatalf("%s: process %d heard %d beats, reference %d", name, p, g, w)
			}
		}
		return got.res
	}
	truncated, listened := 0, 0
	for _, size := range sizes {
		for _, beaters := range []int{0, 1, size.n / 3, size.n, size.n + 5} {
			for ci, churn := range churns {
				churn.Stagger = size.stagger
				e := Experiment{
					Algo: "heartbeat", IDs: BalancedIDs(size.n, size.l), Churn: churn, Period: 8,
					Horizon: size.horizon, Beaters: beaters,
				}
				seed := int64(1 + ci + beaters)
				name := fmt.Sprintf("n=%d beaters=%d churn=%d", size.n, beaters, ci)
				full := same(name, e, seed)
				if full.Stopped == sim.StopMaxEvents {
					t.Fatalf("%s: the engine's default event cap truncated the full run", name)
				}
				if 0 < beaters && beaters < size.n && full.Stats.Delivered > 0 {
					listened++
				}
				// Two thirds of the way through a run almost every event is a
				// copy of some wave of n/8 or so: the cut lands inside one.
				e.MaxEvents = full.Processed * 2 / 3
				if e.MaxEvents == 0 {
					continue
				}
				if cut := same(name+" truncated", e, seed); cut.Stopped != sim.StopMaxEvents || cut.Processed != e.MaxEvents {
					t.Errorf("%s: MaxEvents %d stopped the run by %v after %d events", name, e.MaxEvents, cut.Stopped, cut.Processed)
				}
				truncated++
			}
		}
	}
	if truncated == 0 || listened == 0 {
		t.Fatalf("grid too small: %d truncated runs, %d with listeners that heard something", truncated, listened)
	}
}

// TestHeartbeatAccountingDrift reaches the one error the differential
// never should: a recorder that has counted a delivery no process heard.
func TestHeartbeatAccountingDrift(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Count(trace.KindDeliver, 1)
	_, err := Experiment{Algo: "heartbeat", IDs: BalancedIDs(7, 3), Beaters: 2}.Run(1, rec)
	if err == nil || !strings.Contains(err.Error(), "fan-out accounting drift") {
		t.Fatalf("err = %v, want the fan-out accounting drift error", err)
	}
}
