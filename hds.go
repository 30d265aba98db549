// Package hds (Homonymous Distributed Systems) is the public face of this
// repository: a library reproducing "Failure Detectors in Homonymous
// Distributed Systems (with an Application to Consensus)" (Arévalo,
// Fernández Anta, Imbs, Jiménez, Raynal; ICDCS 2012).
//
// The library provides, over a deterministic discrete-event simulator and
// a live goroutine runtime:
//
//   - the homonymous failure detector classes HΩ, HΣ and ◇HP̄, with the
//     paper's message-passing implementations (Figures 3, 6, 7), oracle
//     implementations for adversarial testing, and trace-based property
//     checkers for every class axiom;
//   - the reductions between classes (Figures 1, 2, 4; Theorems 1–4;
//     Observation 1) as executable, machine-checked transformations;
//   - the two consensus algorithms (Figures 8 and 9) plus the anonymous
//     baseline they derive from, with consensus-property checking.
//
// Quick start — solve consensus among homonymous processes under a
// partially synchronous network, with the failure detector stack built
// from the paper's own Figure 6 algorithm:
//
//	res, err := hds.Experiment{
//		Algo:      "fig8",
//		IDs:       hds.BalancedIDs(5, 2),       // 5 processes, 2 identifiers
//		T:         2,                           // tolerate 2 crashes
//		Crashes:   map[hds.PID]hds.Time{3: 40}, // p3 crashes at t=40
//		Net:       hds.PartialSync{GST: 60, Delta: 3},
//		Detectors: hds.MessagePassingDetectors, // Fig. 6 underneath
//	}.Run(1, nil) // seed 1, stats-only recorder
//	// res.Report is the verified outcome, res.Stats the message costs.
//
// One Experiment describes every run: fig9, fig9-anon, the standalone
// Figure 6 detector (ohp) and the heartbeat workload are other values of
// Algo, and crash-recovery churn is the same call with a Churn spec added.
// Crash-stop is the churn schedule with no recover events, so each
// algorithm has one run body. RunHSigma, the Figure 7 detector, stays
// apart: it runs on the lock-step synchronous engine, whose crashes are
// per-step with a delivery probability.
//
// The sub-packages under internal/ hold the implementation; this package
// re-exports the stable surface and runs experiments.
package hds

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Identity types and constructors.
type (
	// ID is a process identifier; distinct processes may share one.
	ID = ident.ID
	// Assignment maps each process index to its identifier.
	Assignment = ident.Assignment
)

// Anonymous is the default identifier ⊥ of anonymous systems.
const Anonymous = ident.Anonymous

// UniqueIDs returns the classical assignment (ℓ = n).
func UniqueIDs(n int) Assignment { return ident.Unique(n) }

// AnonymousIDs returns the anonymous assignment (ℓ = 1).
func AnonymousIDs(n int) Assignment { return ident.AnonymousN(n) }

// BalancedIDs returns n processes spread evenly over l identifiers.
func BalancedIDs(n, l int) Assignment { return ident.Balanced(n, l) }

// SkewedIDs returns one identifier shared by heavy processes, the rest
// unique.
func SkewedIDs(n, heavy int) Assignment { return ident.Skewed(n, heavy) }

// DomainIDs groups processes into named domains sharing the domain name as
// identifier.
func DomainIDs(sizes map[string]int) Assignment { return ident.Domains(sizes) }

// RandomIDs draws each process's identifier uniformly from a space of the
// given size — collisions model sensor motes with random identities.
func RandomIDs(n, space int, r *rand.Rand) Assignment { return ident.Random(n, space, r) }

// Simulation types.
type (
	// PID is a process index (formalization/observability only).
	PID = sim.PID
	// Time is virtual time.
	Time = sim.Time
	// PartialSync is the HPS network model (eventually timely links).
	PartialSync = sim.PartialSync
	// Async is the HAS network model (reliable asynchronous links).
	Async = sim.Async
	// Pareto is the truncated heavy-tailed (Pareto) delay model.
	Pareto = sim.Pareto
	// LogNormal is the truncated log-normal delay model.
	LogNormal = sim.LogNormal
	// Alternating is time-varying partial synchrony (good/bad windows).
	Alternating = sim.Alternating
	// AsymmetricLinks adds a deterministic per-directed-link latency skew.
	AsymmetricLinks = sim.AsymmetricLinks
	// ChurnSpec generates deterministic crash-recovery churn schedules.
	ChurnSpec = sim.ChurnSpec
	// ChurnEvent is one crash/recover entry of a churn schedule.
	ChurnEvent = sim.ChurnEvent
	// Stats aggregates message costs of a run.
	Stats = trace.Stats
	// Report is the verified outcome of a consensus run.
	Report = check.Report
	// Value is a consensus proposal.
	Value = core.Value
	// LeaderInfo is the HΩ output pair (identifier, multiplicity).
	LeaderInfo = fd.LeaderInfo
)

// Failure detector query interfaces.
type (
	// HOmega is the class HΩ interface.
	HOmega = fd.HOmega
	// HSigma is the class HΣ interface.
	HSigma = fd.HSigma
	// DiamondHPbar is the class ◇HP̄ interface.
	DiamondHPbar = fd.DiamondHPbar
)

// DetectorSource selects how a fig8 experiment builds its failure detectors.
type DetectorSource int

const (
	// OracleDetectors drive detectors from the simulator's global view
	// with a configurable stabilization time — consensus is tested against
	// the detector class, including adversarial pre-stabilization output.
	OracleDetectors DetectorSource = iota
	// MessagePassingDetectors stack the paper's own implementations
	// (Figure 6 for HΩ/◇HP̄) underneath the consensus algorithm.
	MessagePassingDetectors
)

// Experiment describes one run: the system model the paper states every
// result over — the processes and their identifiers, a failure pattern, a
// network, a detector layer — and the algorithm that runs on it. Each
// algorithm reads the fields it needs and replaces a zero field with its
// own default.
type Experiment struct {
	// Algo is fig8 (Figure 8, HAS[t < n/2, HΩ]), fig9 (Figure 9,
	// HAS[HΩ, HΣ]), fig9-anon (Figure 9's anonymous AΩ baseline without the
	// Leaders' Coordination Phase, §5.3 closing remark), ohp (the Figure 6
	// detector, ◇HP̄ + HΩ, on its own) or heartbeat (the population-scale
	// churn workload, judged on engine truth and aggregate costs rather
	// than on a detector stack; a stress harness, not a paper artifact).
	Algo string
	IDs  Assignment
	// T is fig8's crash bound. Under churn it is a budget every process
	// that ever crashes — churner or permanent — spends, matching the
	// paper's "at most t faulty" under the strict "correct = never crashes"
	// reading; T < n/2 guarantees the never-crashed majority completes
	// rounds on its own, so rejoiners can always catch up.
	T int
	// Crashes are permanent crash-stop crashes (heartbeat takes none).
	// Combined with Churn, a process may appear in at most one of the two.
	Crashes map[PID]Time
	// Churn, when its Fraction is positive, adds a crash-recovery schedule.
	// Churners cycle down and up; consensus runs the (REJOIN, r) round
	// resync and is verified in the crash-recovery restatement (Termination
	// over the eventually-up processes, decisions surviving outages), and
	// ohp must re-converge to I(EventuallyUp). Fig. 9 admits any schedule
	// that leaves a process eventually up: its quorums come from HΣ.
	Churn ChurnSpec
	// Net nil selects the algorithm's network: Async{} for consensus,
	// PartialSync{Delta: 3} (the paper's HPS) for ohp, Async{MaxDelay: 8}
	// for heartbeat. ohp needs an eventually timely model; fig8 with
	// MessagePassingDetectors wants PartialSync.
	Net sim.Model
	// Horizon caps virtual time; 0 selects 1,000,000 for consensus, 5,000
	// for ohp and ten periods for heartbeat. It must exceed the fault
	// schedule's last event under churn — a horizon that cuts the schedule
	// short would verify a fault pattern the run never had — and Run
	// enforces that instead of trusting the caller.
	Horizon Time
	// Stabilize is the oracle detectors' stabilization time; under churn 0
	// means 50 past the schedule's last event, so the adversary stays
	// active through the whole churn phase. Adversary shapes their
	// pre-stabilization output. Detectors selects fig8's detector stack;
	// the default, OracleDetectors, states its stable views over the
	// eventually-up set, so they re-converge after churn. Fig. 9 always
	// runs on oracles: the paper's HΣ implementation (Figure 7) lives in
	// the synchronous model, so the asynchronous consensus is exercised
	// against the class.
	Stabilize Time
	Adversary oracle.Adversary
	Detectors DetectorSource
	// Proposals (consensus) defaults to "v0".."v{n-1}".
	Proposals []Value
	// Period is heartbeat's beat interval (10 when not positive). Beaters
	// bounds how many processes beat, the first Beaters PIDs, while the
	// rest only listen; 0 means all n. With a fixed beater count the event
	// volume is Θ(Beaters·n) instead of Θ(n²), so population sweeps grow n
	// while every broadcast still fans out to all n live recipients.
	Period  Time
	Beaters int
	// MaxEvents overrides the engine's runaway guard (0 = engine default).
	MaxEvents int
}

// Result reports a verified run. The fault-pattern fields are every
// algorithm's; the rest belong to one family and stay zero for the others.
// For a crash-stop run EventuallyUp equals Correct and Recoveries is zero.
type Result struct {
	// Report is a consensus run's checker-verified outcome (Termination
	// quantified over the eventually-up processes under churn).
	Report Report
	// DecideAfterChurn is how long after the fault pattern settled the last
	// eventually-up process decided (0 when consensus finished first): the
	// decision latency attributable to re-convergence and rejoin.
	DecideAfterChurn Time
	// TrustedStabilization is the virtual time at which the last
	// eventually-up process's h_trusted changed for the last time (to
	// I(EventuallyUp)); LeaderStabilization is the same instant for the HΩ
	// output, and Leader that output (ohp).
	TrustedStabilization, LeaderStabilization Time
	Leader                                    LeaderInfo
	// FinalTimeouts are the adapted per-process timeout values (ohp).
	FinalTimeouts []Time
	// Processed is the number of simulator events executed, and MaxQueue
	// the event-queue high-water mark (heartbeat). With lazy fan-out the
	// queue tracks live broadcasts and timers, not n² message copies, which
	// is what makes large-n sweeps constant-memory.
	Processed, MaxQueue int
	// Stats aggregates message costs; a failed consensus run fills it too.
	Stats Stats
	// Stopped is why the run ended (horizon for a healthy ohp run: polling
	// never quiesces).
	Stopped sim.StopReason
	// LastChange is the final fault-pattern change (last crash or recovery)
	// — the earliest instant the run's tail is fault-free.
	LastChange Time
	// EventuallyUp and Correct are |EventuallyUp| and |Correct|; Recoveries
	// counts executed recover events.
	EventuallyUp, Correct, Recoveries int
}

// Run executes the experiment with the given seed and verifies it: the
// consensus properties for fig8/fig9/fig9-anon, the ◇HP̄ and HΩ class
// properties for ohp, fault bookkeeping, delivery accounting and delivery
// liveness for heartbeat. rec, when non-nil, replaces the default
// stats-only recorder: pass a retaining recorder for a full in-memory
// trace, or one with a trace.Sink attached to stream batches (spill mode);
// the caller owns flushing it. Malformed input — an invalid assignment, a
// crash outside [0, n), a horizon that cuts the churn schedule short — is
// rejected with an error, not run.
func (e Experiment) Run(seed int64, rec *trace.Recorder) (Result, error) {
	if rec == nil {
		rec = &trace.Recorder{}
	}
	switch e.Algo {
	case "fig8", "fig9", "fig9-anon":
		r, err := e.bind(seed, rec)
		if err != nil {
			return Result{}, err
		}
		return r.run()
	case "ohp":
		return runOHP(e, seed, rec)
	case "heartbeat":
		res, _, err := runHeartbeat(e, seed, rec)
		return res, err
	}
	return Result{}, fmt.Errorf("hds: unknown algorithm %q (want fig8, fig9, fig9-anon, ohp or heartbeat)", e.Algo)
}

// bind validates a consensus experiment and binds it to its engine
// configuration.
func (e Experiment) bind(seed int64, rec *trace.Recorder) (consensusRun, error) {
	if err := validateExperiment(e.IDs, e.Crashes, e.Proposals); err != nil {
		return consensusRun{}, err
	}
	fig8 := e.Algo == "fig8"
	if n := e.IDs.N(); fig8 && (e.T < 0 || 2*e.T >= n) {
		return consensusRun{}, fmt.Errorf("hds: Fig8 requires 0 <= t < n/2, got t=%d n=%d", e.T, n)
	}
	return consensusRun{e, sim.Config{IDs: e.IDs, Net: e.Net, Seed: seed, KnownN: fig8, MaxEvents: e.MaxEvents, Recorder: rec}}, nil
}

// decider is what the run body needs from a consensus instance.
type decider interface {
	sim.Process
	Decided() core.Outcome
	InvariantErr() error
}

// consensusRun is a validated consensus experiment and the engine
// configuration it runs with.
type consensusRun struct {
	Experiment
	cfg sim.Config
}

// admit vets the fault pattern of a churn run: Fig. 8's t budget, Fig. 9's
// non-empty eventually-up set.
func (r consensusRun) admit(truth *fd.GroundTruth) error {
	if r.Algo == "fig8" {
		if crashed := len(truth.CrashTimes); crashed > r.T {
			return fmt.Errorf("hds: churn schedule plus crashes fault %d processes, exceeding the t=%d budget (every crash spends it, recovered or not)", crashed, r.T)
		}
	} else if len(truth.EventuallyUp()) == 0 {
		return fmt.Errorf("hds: no process is eventually up — nothing can decide")
	}
	return nil
}

// stack puts a process's detectors on its node and returns its consensus
// instance.
func (r consensusRun) stack(world *oracle.World, node *sim.Node, proposal Value) decider {
	switch {
	case r.Algo == "fig8" && r.Detectors == MessagePassingDetectors:
		d := ohp.New()
		node.Add("ohp", d)
		return core.NewFig8(d, r.T, proposal)
	case r.Algo == "fig8":
		d := oracle.NewHOmega(world, r.Adversary)
		node.Add("homega", d)
		return core.NewFig8(d, r.T, proposal)
	}
	hs := oracle.NewHSigma(world)
	node.Add("hsigma", hs)
	if r.Algo == "fig9-anon" {
		ao := oracle.NewAOmega(world, r.Adversary)
		node.Add("aomega", ao)
		return core.NewFig9Anonymous(ao, hs, proposal)
	}
	ho := oracle.NewHOmega(world, r.Adversary)
	node.Add("homega", ho)
	return core.NewFig9(ho, hs, proposal)
}

// run is the one consensus body. Crash-stop is the churn schedule with no
// recover events, so both go through the same fault pattern, engine
// schedule and until-predicate; what a churn spec adds is
// decided here from r.Churn alone: schedule-vs-horizon validation, the
// admit check, the stabilization default, decision-stability monitoring,
// the engine-vs-truth cross-check, and Termination over "eventually-up"
// instead of "correct" processes.
func (r consensusRun) run() (Result, error) {
	ids := r.IDs
	churn := r.Churn.Fraction > 0
	if r.Horizon == 0 {
		r.Horizon = 1_000_000
	}
	schedule, truth, err := FaultPattern(ids, r.Churn, r.Crashes, r.Horizon)
	if err != nil {
		return Result{}, err
	}
	if churn {
		if err := r.admit(truth); err != nil {
			return Result{}, err
		}
		if r.Stabilize == 0 {
			r.Stabilize = truth.LastChange() + 50
		}
	}
	if r.Proposals == nil {
		r.Proposals = DefaultProposals(ids.N())
	}

	eng := sim.New(r.cfg)
	world := oracle.NewWorld(truth, r.Stabilize)
	insts := make([]decider, ids.N())
	for i := range insts {
		node := sim.NewNode()
		insts[i] = r.stack(world, node, r.Proposals[i])
		eng.AddProcess(node.Add("consensus", insts[i]))
	}
	eng.ApplyChurn(schedule)
	var mon *check.DecisionMonitor
	if churn {
		mon = check.NewDecisionMonitor()
		eng.AfterEvent(func(_ Time, p sim.PID) {
			if p >= 0 {
				mon.Observe(p, insts[p].Decided())
			}
		})
	}
	eng.RunUntil(r.Horizon, untilDecided(truth.EventuallyUp(), insts, r.cfg.Recorder))

	// A failed run still reports what it cost and why it stopped.
	failed := Result{Stats: r.cfg.Recorder.Stats(), Stopped: eng.Stopped()}
	if err := guardErr(eng); err != nil {
		return failed, err
	}
	if churn {
		if err := checkTruthConsistency(eng, truth); err != nil {
			return failed, err
		}
		if err := mon.Err(); err != nil {
			return failed, err
		}
	}
	outcomes := make([]core.Outcome, len(insts))
	for i, inst := range insts {
		outcomes[i] = inst.Decided()
		if err := inst.InvariantErr(); err != nil {
			return failed, fmt.Errorf("hds: internal invariant: %w", err)
		}
	}
	res, err := VerifyConsensus(truth, churn, r.Proposals, outcomes)
	res.Stats, res.Stopped, res.Recoveries = failed.Stats, failed.Stopped, eng.Recoveries()
	return res, err
}

// untilDecided is a consensus run's until-predicate: true once every
// process in up has decided. The engine calls it after every event, and
// under broken links a run can spend a million idle heartbeat ticks
// deciding nothing, so it does not rescan up each time. A decision is never
// revoked (decide and onDecide are first-call-wins), so a cursor over up
// only ever moves past decided instances. And it moves only when rec's
// decision count has changed since the last call: decide and onDecide, the
// only writers of an outcome, each record one KindDecide note through rec
// as they write it, so between two changes of the count no answer can
// change. seen starts at -1 so the first call always scans (with up empty
// it returns true at once); a recorder shared with other runs only causes
// extra scans.
func untilDecided(up []sim.PID, insts []decider, rec *trace.Recorder) func() bool {
	next, seen, all := 0, int64(-1), false
	return func() bool {
		if d := rec.Decisions(); d != seen {
			seen = d
			for next < len(up) && insts[up[next]].Decided().Decided {
				next++
			}
			all = next == len(up)
		}
		return all
	}
}

// VerifyConsensus judges final outcomes against the fault pattern and
// fills the result's report and fault-pattern numbers; the caller adds
// what only it can count (Stats, Recoveries, Stopped). churn selects the
// crash-recovery restatement: Termination over the eventually-up
// processes instead of the correct ones. It is the judgement a live run
// and an offline replay of its trace share.
func VerifyConsensus(truth *fd.GroundTruth, churn bool, proposals []Value, outcomes []core.Outcome) (Result, error) {
	verify := check.Consensus
	if churn {
		verify = check.ConsensusChurn
	}
	rep, err := verify(truth, proposals, outcomes)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Report:       rep,
		LastChange:   truth.LastChange(),
		EventuallyUp: len(truth.EventuallyUp()),
		Correct:      len(truth.Correct()),
	}
	if rep.LastDecision > res.LastChange {
		res.DecideAfterChurn = rep.LastDecision - res.LastChange
	}
	return res, nil
}

// FaultPattern expands a churn spec plus permanent crashes into the one
// schedule the engine executes (sim.Engine.ApplyChurn) and the ground
// truth the checkers judge against — crash-stop is the case with no
// recover events. Crashes are appended in ascending PID order: same-time
// events are tie-broken by registration sequence, so map order must not
// leak. A process driven by both mechanisms is rejected, and so is a churn
// schedule whose last event is not before the horizon (crashes included: a
// permanent crash past the horizon would be truncated exactly like a churn
// event, and the truth would verify a fault pattern the run never had).
// Offline verification rebuilds a recorded run's fault pattern with it
// from the scenario fingerprint alone.
func FaultPattern(ids Assignment, churn ChurnSpec, crashes map[PID]Time, horizon Time) ([]ChurnEvent, *fd.GroundTruth, error) {
	schedule := churn.Events(ids.N())
	if len(crashes) > 0 {
		churners := make(map[PID]bool, len(schedule))
		for _, ev := range schedule {
			churners[ev.P] = true
		}
		pids := make([]PID, 0, len(crashes))
		var overlap []PID
		for p := range crashes {
			pids = append(pids, p)
			if churners[p] {
				overlap = append(overlap, p)
			}
		}
		if len(overlap) > 0 {
			slices.Sort(overlap)
			return nil, nil, fmt.Errorf("hds: process(es) %v appear in both the churn schedule and the Crashes map — use one crash mechanism per process (the engine would interleave both into a schedule nobody asked for)", overlap)
		}
		slices.Sort(pids)
		for _, p := range pids {
			schedule = append(schedule, ChurnEvent{P: p, At: crashes[p]})
		}
	}
	if churn.Fraction > 0 {
		var last Time
		for _, ev := range schedule {
			last = max(last, ev.At)
		}
		if last >= horizon {
			return nil, nil, fmt.Errorf("hds: the fault schedule's last event at t=%d is not before the horizon %d — the run would truncate the fault pattern", last, horizon)
		}
	}
	return schedule, fd.NewGroundTruthFromChurn(ids, schedule), nil
}

// guardErr converts a MaxEvents-truncated run into an error. Every
// experiment driver calls it right after the run: a truncated execution is
// not a quiescent one, and silently reading its results would turn the
// runaway guard into a source of wrong tables.
func guardErr(eng *sim.Engine) error {
	if eng.Stopped() == sim.StopMaxEvents {
		return fmt.Errorf("hds: run truncated by the MaxEvents guard after %d events — raise MaxEvents or shrink the scenario", eng.Processed())
	}
	return nil
}

// DefaultProposals is the proposal vector a consensus run uses when the
// experiment supplies none: "v0".."v{n-1}". Exported so offline
// verification can reconstruct the proposals a recorded run was checked
// against from its scenario fingerprint alone.
func DefaultProposals(n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = Value(fmt.Sprintf("v%d", i))
	}
	return out
}

// validateExperiment rejects malformed experiment descriptions with errors
// rather than panics: experiment inputs are user-facing.
func validateExperiment(ids Assignment, crashes map[PID]Time, proposals []Value) error {
	if err := ids.Validate(); err != nil {
		return fmt.Errorf("hds: %w", err)
	}
	n := ids.N()
	// Validate in ascending PID order: with several malformed entries, the
	// one named in the error must not depend on map iteration order.
	pids := make([]PID, 0, len(crashes))
	for p := range crashes {
		pids = append(pids, p)
	}
	slices.Sort(pids)
	for _, p := range pids {
		if int(p) < 0 || int(p) >= n {
			return fmt.Errorf("hds: crash schedule names process %d outside [0,%d)", p, n)
		}
		if at := crashes[p]; at < 0 {
			return fmt.Errorf("hds: crash time %d for process %d is negative", at, p)
		}
	}
	if proposals != nil && len(proposals) != n {
		return fmt.Errorf("hds: %d proposals for %d processes", len(proposals), n)
	}
	for i, v := range proposals {
		if v == core.Bottom {
			return fmt.Errorf("hds: process %d proposes the reserved ⊥ value", i)
		}
	}
	return nil
}
