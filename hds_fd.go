package hds

import (
	"fmt"
	"slices"

	"repro/internal/fd"
	"repro/internal/fd/hsigma"
	"repro/internal/fd/ohp"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runOHP executes Figure 6 on every process, verifies the ◇HP̄ and HΩ
// class properties against the ground truth — stated over the eventually-up
// set, the crash-recovery restatement whose crash-stop form is the case
// with no recoveries — and reports stabilization times and costs
// (experiments E6/E7/E18/E19). Under churn it also cross-checks the
// engine's incremental fault bookkeeping against the schedule-derived truth.
// e is validated, with its defaults filled, and faults is the fault
// pattern its validation built (Experiment.Run).
func runOHP(e Experiment, faults faultPattern, seed int64, rec *trace.Recorder) (Result, error) {
	n, truth := e.IDs.N(), faults.truth
	eng := sim.New(sim.Config{IDs: e.IDs, Net: e.Net, Seed: seed, Recorder: rec, MaxEvents: e.MaxEvents})
	dets := make([]*ohp.Detector, n)
	for i := range dets {
		dets[i] = ohp.New()
		eng.AddProcess(dets[i])
	}
	eng.ApplyChurn(faults.schedule)
	// The trusted probe samples the detector's shared output: no clone on
	// the sampling path (fd.DiamondHPbar's contract: OnTimer replaces
	// h_trusted wholesale, so stored views are never mutated after
	// sampling). The detector signals each replacement (sim.Signaller), so
	// both probes read it once per change, not after every POLLING and
	// P_REPLY delivery. Streaming probes suffice — the
	// checkers judge final views and stabilization times only, so O(1)
	// state per process does (equivalence with the materialized Probe is
	// pinned in internal/fd) — and their change streams feed the trace
	// when one is kept, so a replay can re-verify the same verdicts.
	trustedProbe := fd.NewStreamProbe(eng, n, func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		return dets[p].Trusted(), true
	}, fd.MultisetEqual)
	leaderProbe := fd.NewStreamProbe(eng, n, func(p sim.PID) (fd.LeaderInfo, bool) {
		return dets[p].Leader()
	}, fd.LeaderEqual)
	if rec.Retaining() {
		fd.RecordChanges(rec, trustedProbe, fd.TagTrusted, fd.RenderView)
		fd.RecordChanges(rec, leaderProbe, fd.TagLeader, fd.RenderLeader)
	}

	eng.Run(e.Horizon)
	if err := guardErr(eng); err != nil {
		return Result{}, err
	}
	if e.Churn.Fraction > 0 {
		if err := checkTruthConsistency(eng, truth); err != nil {
			return Result{}, err
		}
	}

	out, err := VerifyOHP(truth, trustedProbe, leaderProbe)
	if err != nil {
		return Result{}, err
	}
	out.Stats, out.Recoveries, out.Stopped = rec.Stats(), eng.Recoveries(), eng.Stopped()
	for _, d := range dets {
		out.FinalTimeouts = append(out.FinalTimeouts, d.Timeout())
	}
	return out, nil
}

// VerifyOHP judges the detectors' final views against the fault pattern —
// the ◇HP̄ and HΩ class properties over the eventually-up set — and fills
// the result's stabilization times, leader and fault-pattern numbers; the
// caller adds what only it can count (Stats, Recoveries, Stopped,
// FinalTimeouts). It is the judgement a live run (streaming probes) and
// an offline replay of its trace (change replayers) share.
func VerifyOHP(truth *fd.GroundTruth, trusted fd.FinalView[*multiset.Multiset[ident.ID]], leader fd.FinalView[fd.LeaderInfo]) (Result, error) {
	resT, err := fd.CheckDiamondHPbar(truth, trusted)
	if err != nil {
		return Result{}, err
	}
	resL, err := fd.CheckHOmega(truth, leader)
	if err != nil {
		return Result{}, err
	}
	out := Result{
		TrustedStabilization: resT.StabilizationTime,
		LeaderStabilization:  resL.StabilizationTime,
		LastChange:           truth.LastChange(),
		EventuallyUp:         len(truth.EventuallyUp()),
		Correct:              len(truth.Correct()),
	}
	if up := truth.EventuallyUp(); len(up) > 0 {
		out.Leader, _ = leader.Last(up[0])
	}
	return out, nil
}

// HSigmaExperiment describes one run of the Figure 7 detector in the
// synchronous system HSS.
type HSigmaExperiment struct {
	IDs Assignment
	// CrashSteps maps process → (step, deliverProb): the process crashes
	// during that step, its broadcast reaching each peer with deliverProb.
	CrashSteps map[PID]CrashStep
	// Steps is the run's length in synchronous steps; 0 selects the
	// default (WithDefaults).
	Steps int
	Seed  int64
}

// WithDefaults returns the experiment with a zero Steps replaced by the
// default step count, 12: the one statement of it.
func (e HSigmaExperiment) WithDefaults() HSigmaExperiment {
	if e.Steps == 0 {
		e.Steps = 12
	}
	return e
}

// CrashStep is a synchronous crash specification.
type CrashStep struct {
	Step        int
	DeliverProb float64
}

// HSigmaResult reports the verified Figure 7 run.
type HSigmaResult struct {
	// StabilizationStep is the step after which outputs stopped changing.
	StabilizationStep Time
	// QuoraPerProcess is the final |h_quora| at each surviving process.
	QuoraPerProcess []int
	Stats           Stats
}

// RunHSigma executes Figure 7, verifies all four HΣ axioms, and reports
// stabilization and quora sizes (experiment E8). Like Experiment.Run it
// rejects malformed input — an invalid assignment, a crash outside [0, n)
// or outside steps [1, Steps], a negative step count, a delivery
// probability outside [0, 1] — with an error, not a panic.
func RunHSigma(e HSigmaExperiment) (HSigmaResult, error) {
	crashSteps := make(map[sim.PID]sim.Time, len(e.CrashSteps))
	for p, cs := range e.CrashSteps {
		crashSteps[p] = sim.Time(cs.Step)
	}
	if err := checkCrashes(e.IDs, crashSteps); err != nil {
		return HSigmaResult{}, fmt.Errorf("hds: %w", err)
	}
	if e.Steps < 0 {
		return HSigmaResult{}, fmt.Errorf("hds: negative step count %d", e.Steps)
	}
	e = e.WithDefaults()
	n := e.IDs.N()
	rec := &trace.Recorder{}
	eng := sim.New(sim.LockstepConfig(sim.Config{IDs: e.IDs, Seed: e.Seed, Recorder: rec}, e.Steps))
	dets := make([]*hsigma.Detector, n)
	for i := range dets {
		dets[i] = hsigma.New()
		eng.AddProcess(sim.NewLockstep(dets[i]))
	}
	// Validate in ascending PID order, so that the error reported for
	// several bad entries does not depend on map iteration order. A crash
	// during step k is one at step k's broadcast, and the ground truth
	// dates it there.
	crashTimes := make(map[sim.PID]sim.Time, len(e.CrashSteps))
	crashPids := make([]sim.PID, 0, len(e.CrashSteps))
	for p := range e.CrashSteps {
		crashPids = append(crashPids, p)
	}
	slices.Sort(crashPids)
	for _, p := range crashPids {
		cs := e.CrashSteps[p]
		if cs.Step < 1 || cs.Step > e.Steps {
			// A crash the run never executes would still be in the ground
			// truth, and the checker would judge a fault that did not happen.
			return HSigmaResult{}, fmt.Errorf("hds: process %d crashes at step %d, outside the run's steps [1,%d]", p, cs.Step, e.Steps)
		}
		if !(cs.DeliverProb >= 0 && cs.DeliverProb <= 1) {
			return HSigmaResult{}, fmt.Errorf("hds: delivery probability %v for process %d is outside [0,1]", cs.DeliverProb, p)
		}
		eng.CrashDuringBroadcast(p, sim.StepStart(cs.Step), cs.DeliverProb)
		crashTimes[p] = sim.StepStart(cs.Step)
	}
	truth := fd.NewGroundTruth(e.IDs, crashTimes)
	quora := fd.NewProbe(eng, n, func(p sim.PID) ([]fd.QuorumPair, bool) {
		return dets[p].Quora(), true
	}, fd.QuoraEqual)
	labels := fd.NewProbe(eng, n, func(p sim.PID) ([]fd.Label, bool) {
		return dets[p].Labels(), true
	}, fd.LabelsEqual)

	eng.Run(sim.StepEnd(e.Steps))
	if err := guardErr(eng); err != nil {
		return HSigmaResult{}, err
	}

	res, err := fd.CheckHSigma(truth, quora, labels)
	if err != nil {
		return HSigmaResult{}, err
	}
	out := HSigmaResult{StabilizationStep: Time(sim.StepOf(res.StabilizationTime)), Stats: rec.Stats()}
	for p := 0; p < n; p++ {
		if !eng.Crashed(sim.PID(p)) {
			out.QuoraPerProcess = append(out.QuoraPerProcess, len(dets[p].Quora()))
		}
	}
	return out, nil
}
