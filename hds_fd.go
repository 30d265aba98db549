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

// OHPExperiment describes one standalone run of the Figure 6 detector
// (◇HP̄ + HΩ) in the partially synchronous system HPS, crash-stop or — with
// a Churn spec — under crash-recovery churn, where the detector must
// re-converge to I(EventuallyUp): the crash-recovery restatement of the
// class properties (their crash-stop forms are the special case with no
// recoveries).
type OHPExperiment struct {
	IDs     Assignment
	Crashes map[PID]Time
	// Churn, when its Fraction is positive, adds a crash-recovery schedule;
	// a process may appear in at most one of Crashes and the schedule.
	Churn ChurnSpec
	GST   Time
	// Delta defaults to 3.
	Delta Time
	// Net overrides the network model. When nil the experiment runs on
	// PartialSync{GST, Delta} — the paper's HPS setting. Any eventually
	// timely model works (the truncated heavy-tail models qualify: their
	// Cap bounds every delay); the delay ablation experiment (E19) sweeps
	// them.
	Net  sim.Model
	Seed int64
	// Horizon caps virtual time (default 5000). Under churn it must exceed
	// the fault schedule's last event.
	Horizon Time
	// MaxEvents overrides the engine's runaway guard (0 = engine default).
	MaxEvents int
	// Trace, when non-nil, replaces the default stats-only recorder (see
	// Fig8Experiment.Trace).
	Trace *trace.Recorder
}

// OHPResult reports the verified detector run.
type OHPResult struct {
	// TrustedStabilization is the virtual time at which the last
	// eventually-up process's h_trusted changed for the last time (to
	// I(EventuallyUp) — I(Correct) in a crash-stop run).
	TrustedStabilization Time
	// LeaderStabilization is the analogous instant for the HΩ output.
	LeaderStabilization Time
	// Leader is the stabilized HΩ output.
	Leader LeaderInfo
	// Stats aggregates message costs over the horizon.
	Stats Stats
	// FinalTimeouts are the adapted per-process timeout values.
	FinalTimeouts []Time
	// LastChange is the final fault-pattern change (last crash or
	// recovery) — the earliest instant stabilization could begin.
	LastChange Time
	// EventuallyUp and Correct are |EventuallyUp| and |Correct|.
	EventuallyUp, Correct int
	// Recoveries counts executed recover events.
	Recoveries int
	// Stopped is why the run ended (horizon for a healthy detector run:
	// polling never quiesces).
	Stopped sim.StopReason
}

// RunOHP executes Figure 6 on every process, verifies the ◇HP̄ and HΩ
// class properties against the ground truth (stated over the eventually-up
// set, which is the correct set when nothing recovers), and reports
// stabilization times and costs (experiments E6/E7/E18). Under churn it
// also cross-checks the engine's incremental fault bookkeeping against the
// schedule-derived truth. Malformed inputs — an invalid assignment, a
// crash outside [0, n), a horizon that cuts the churn schedule short — are
// rejected with errors, not run.
func RunOHP(e OHPExperiment) (OHPResult, error) {
	if err := validateExperiment(e.IDs, e.Crashes, nil); err != nil {
		return OHPResult{}, err
	}
	if e.Horizon == 0 {
		e.Horizon = 5000
	}
	if e.Delta == 0 {
		e.Delta = 3
	}
	n := e.IDs.N()
	schedule, truth, err := FaultPattern(e.IDs, e.Churn, e.Crashes, e.Horizon)
	if err != nil {
		return OHPResult{}, err
	}
	net := e.Net
	if net == nil {
		net = sim.PartialSync{GST: e.GST, Delta: e.Delta}
	}
	rec := traceRecorder(e.Trace)
	eng := sim.New(sim.Config{IDs: e.IDs, Net: net, Seed: e.Seed, Recorder: rec, MaxEvents: e.MaxEvents})
	dets := make([]*ohp.Detector, n)
	for i := range dets {
		dets[i] = ohp.New()
		eng.AddProcess(dets[i])
	}
	eng.ApplyChurn(schedule)
	// The trusted probe samples the detector's live view: no clone on the
	// per-event path (OnTimer replaces h_trusted wholesale, so stored views
	// are never mutated after sampling). Streaming probes suffice — the
	// checkers judge final views and stabilization times only, so O(1)
	// state per process does (equivalence with the materialized Probe is
	// pinned in internal/fd) — and their change streams feed the trace
	// when one is kept, so a replay can re-verify the same verdicts.
	trustedProbe := fd.NewStreamProbe(eng, n, func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].TrustedView(), true
	}, func(a, b *multiset.Multiset[ident.ID]) bool { return a.Equal(b) })
	leaderProbe := fd.NewStreamProbe(eng, n, func(p sim.PID) (fd.LeaderInfo, bool) {
		if eng.Crashed(p) {
			return fd.LeaderInfo{}, false
		}
		return dets[p].Leader()
	}, func(a, b fd.LeaderInfo) bool { return a == b })
	if rec.Retaining() {
		fd.RecordChanges(rec, trustedProbe, fd.TagTrusted, fd.RenderView)
		fd.RecordChanges(rec, leaderProbe, fd.TagLeader, fd.RenderLeader)
	}

	eng.Run(e.Horizon)
	if err := guardErr(eng); err != nil {
		return OHPResult{}, err
	}
	if e.Churn.Fraction > 0 {
		if err := checkTruthConsistency(eng, truth); err != nil {
			return OHPResult{}, err
		}
	}

	out, err := VerifyOHP(truth, trustedProbe, leaderProbe)
	if err != nil {
		return OHPResult{}, err
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
func VerifyOHP(truth *fd.GroundTruth, trusted fd.FinalView[*multiset.Multiset[ident.ID]], leader fd.FinalView[fd.LeaderInfo]) (OHPResult, error) {
	resT, err := fd.CheckDiamondHPbar(truth, trusted)
	if err != nil {
		return OHPResult{}, err
	}
	resL, err := fd.CheckHOmega(truth, leader)
	if err != nil {
		return OHPResult{}, err
	}
	out := OHPResult{
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
	Steps      int
	Seed       int64
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
// stabilization and quora sizes (experiment E8). Like the other runners it
// rejects malformed input — an invalid assignment, a crash outside [0, n)
// or outside steps [1, Steps], a negative step count, a delivery
// probability outside [0, 1] — with an error, not a panic.
func RunHSigma(e HSigmaExperiment) (HSigmaResult, error) {
	crashTimes := make(map[sim.PID]sim.Time, len(e.CrashSteps))
	for p, cs := range e.CrashSteps {
		crashTimes[p] = sim.Time(cs.Step)
	}
	if err := validateExperiment(e.IDs, crashTimes, nil); err != nil {
		return HSigmaResult{}, err
	}
	if e.Steps < 0 {
		return HSigmaResult{}, fmt.Errorf("hds: negative step count %d", e.Steps)
	}
	if e.Steps == 0 {
		e.Steps = 12
	}
	n := e.IDs.N()
	rec := &trace.Recorder{}
	eng := sim.NewSync(sim.SyncConfig{IDs: e.IDs, Seed: e.Seed, Recorder: rec})
	dets := make([]*hsigma.Detector, n)
	for i := range dets {
		dets[i] = hsigma.New()
		eng.AddProcess(dets[i])
	}
	// Register in ascending PID order: CrashAtStep appends to the step's
	// crash list, and the sync engine replays that list, so map iteration
	// order would otherwise reach the trace (or pick the error reported).
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
		eng.CrashAtStep(p, cs.Step, cs.DeliverProb)
	}
	truth := fd.NewGroundTruth(e.IDs, crashTimes)
	quora := fd.NewSyncProbe(eng, n, func(p sim.PID) ([]fd.QuorumPair, bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Quora(), true
	}, fd.QuoraEqual)
	labels := fd.NewSyncProbe(eng, n, func(p sim.PID) ([]fd.Label, bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Labels(), true
	}, fd.LabelsEqual)

	eng.RunSteps(e.Steps)

	res, err := fd.CheckHSigma(truth, quora, labels)
	if err != nil {
		return HSigmaResult{}, err
	}
	out := HSigmaResult{StabilizationStep: res.StabilizationTime, Stats: rec.Stats()}
	for p := 0; p < n; p++ {
		if !eng.Crashed(sim.PID(p)) {
			out.QuoraPerProcess = append(out.QuoraPerProcess, len(dets[p].Quora()))
		}
	}
	return out, nil
}
