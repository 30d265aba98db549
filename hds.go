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
//	res, err := hds.RunFig8(hds.Fig8Experiment{
//		IDs:       hds.BalancedIDs(5, 2),       // 5 processes, 2 identifiers
//		T:         2,                           // tolerate 2 crashes
//		Crashes:   map[hds.PID]hds.Time{3: 40}, // p3 crashes at t=40
//		Net:       hds.PartialSync{GST: 60, Delta: 3},
//		Detectors: hds.MessagePassingDetectors, // Fig. 6 underneath
//		Seed:      1,
//	})
//	// res.Report is the verified outcome, res.Stats the message costs.
//
// Crash-recovery churn is the same call with a Churn spec added; crash-stop
// is the churn schedule with no recover events, so each algorithm has one
// run body.
//
// The sub-packages under internal/ hold the implementation; this package
// re-exports the stable surface and offers turnkey experiment runners.
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

// DetectorSource selects how experiment runners build failure detectors.
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

// Fig8Experiment describes one run of the Figure 8 consensus
// (HAS[t < n/2, HΩ]), crash-stop or — with a Churn spec — under
// crash-recovery churn: churners cycle down and up per the schedule,
// recovered processes rejoin through the (REJOIN, r) round-resync
// exchange, and the consensus properties are verified in their
// crash-recovery restatement (Termination over the eventually-up
// processes, decisions surviving outages).
type Fig8Experiment struct {
	IDs Assignment
	// T is the crash bound. Under churn it is a budget every process that
	// ever crashes — churner or permanent — spends, matching the paper's
	// "at most t faulty" under the strict "correct = never crashes" reading;
	// T < n/2 guarantees the never-crashed majority completes rounds on its
	// own, so rejoiners can always catch up.
	T int
	// Crashes are permanent crash-stop crashes. Combined with Churn, a
	// process may appear in at most one of the two mechanisms.
	Crashes map[PID]Time
	// Churn, when its Fraction is positive, adds a crash-recovery schedule.
	Churn ChurnSpec
	// Net defaults to Async{}; use PartialSync with MessagePassingDetectors.
	Net sim.Model
	// Detectors defaults to OracleDetectors (whose stable views are stated
	// over the eventually-up set, so they re-converge after churn).
	Detectors DetectorSource
	// Stabilize is the oracle stabilization time (OracleDetectors only).
	// Under churn, zero defaults to 50 past the schedule's last event, so
	// the adversary stays active through the whole churn phase.
	Stabilize Time
	// Adversary shapes pre-stabilization oracle output (OracleDetectors).
	Adversary oracle.Adversary
	// Proposals defaults to "v0".."v{n-1}".
	Proposals []Value
	Seed      int64
	// Horizon caps virtual time (default 1e6). Under churn it must exceed
	// the fault schedule's last event — a horizon that cuts the schedule
	// short would silently verify a different fault pattern — and the
	// runner enforces that instead of trusting the caller.
	Horizon Time
	// MaxEvents overrides the engine's runaway guard (0 = engine default).
	MaxEvents int
	// Trace, when non-nil, replaces the default stats-only recorder: pass
	// a retaining recorder for a full in-memory trace, or one with a
	// trace.Sink attached to stream batches (spill mode). The caller owns
	// flushing.
	Trace *trace.Recorder
}

// Fig9Experiment describes one run of the Figure 9 consensus
// (HAS[HΩ, HΣ]) or its anonymous baseline. Fig. 9 needs neither n nor t:
// quorums come from the HΣ detector, whose stable output under churn is
// built over the eventually-up set, so any churn schedule is admissible —
// including final-down churners that shrink the deciding population.
type Fig9Experiment struct {
	IDs Assignment
	// Crashes, Churn, Stabilize, Horizon, MaxEvents and Trace are as in
	// Fig8Experiment.
	Crashes map[PID]Time
	Churn   ChurnSpec
	Net     sim.Model
	// AnonymousBaseline switches to the AΩ variant without the Leaders'
	// Coordination Phase (§5.3 closing remark).
	AnonymousBaseline bool
	Stabilize         Time
	Adversary         oracle.Adversary
	Proposals         []Value
	Seed              int64
	Horizon           Time
	MaxEvents         int
	Trace             *trace.Recorder
}

// ConsensusResult reports a consensus run: the checker-verified outcome,
// the message costs, and the fault pattern's numbers (for a crash-stop run
// EventuallyUp equals Correct and Recoveries is zero).
type ConsensusResult struct {
	// Report is the checker-verified outcome (Termination quantified over
	// the eventually-up processes under churn).
	Report Report
	// Stats aggregates message costs; filled on verification failures too.
	Stats Stats
	// LastChange is the final fault-pattern change (last crash or
	// recovery) — the earliest instant the run's tail is fault-free.
	LastChange Time
	// DecideAfterChurn is how long after the fault pattern settled the last
	// eventually-up process decided (0 when consensus finished first): the
	// decision latency attributable to re-convergence and rejoin.
	DecideAfterChurn Time
	// EventuallyUp and Correct are |EventuallyUp| and |Correct|.
	EventuallyUp, Correct int
	// Recoveries counts executed recover events.
	Recoveries int
	// Stopped is why the run ended.
	Stopped sim.StopReason
}

// RunFig8 executes the experiment — under churn with the rejoin protocol
// live — verifies Termination/Validity/Agreement and returns the verified
// report plus message statistics.
func RunFig8(e Fig8Experiment) (ConsensusResult, error) {
	r, err := e.bind()
	if err != nil {
		return ConsensusResult{}, err
	}
	return r.run()
}

// bind validates the experiment and binds it to the run body.
func (e Fig8Experiment) bind() (consensusRun, error) {
	if err := validateExperiment(e.IDs, e.Crashes, e.Proposals); err != nil {
		return consensusRun{}, err
	}
	if n := e.IDs.N(); e.T < 0 || 2*e.T >= n {
		return consensusRun{}, fmt.Errorf("hds: Fig8 requires 0 <= t < n/2, got t=%d n=%d", e.T, n)
	}
	return consensusRun{
		crashes: e.Crashes, churn: e.Churn, proposals: e.Proposals,
		stabilize: e.Stabilize, horizon: e.Horizon,
		cfg: sim.Config{IDs: e.IDs, Net: e.Net, Seed: e.Seed, KnownN: true, MaxEvents: e.MaxEvents, Recorder: traceRecorder(e.Trace)},
		admit: func(truth *fd.GroundTruth) error {
			if crashed := len(truth.CrashTimes); crashed > e.T {
				return fmt.Errorf("hds: churn schedule plus crashes fault %d processes, exceeding the t=%d budget (every crash spends it, recovered or not)", crashed, e.T)
			}
			return nil
		},
		stack: func(world *oracle.World, node *sim.Node, proposal Value) decider {
			var det fd.HOmega
			if e.Detectors == MessagePassingDetectors {
				d := ohp.New()
				node.Add("ohp", d)
				det = d
			} else {
				d := oracle.NewHOmega(world, e.Adversary)
				node.Add("homega", d)
				det = d
			}
			return core.NewFig8(det, e.T, proposal)
		},
	}, nil
}

// RunFig9 executes the experiment and verifies the consensus properties.
// Detectors are oracle-driven: the paper's HΣ implementation (Figure 7)
// lives in the synchronous model, so the asynchronous consensus is
// exercised against the class (see DESIGN.md's substitution table).
func RunFig9(e Fig9Experiment) (ConsensusResult, error) {
	r, err := e.bind()
	if err != nil {
		return ConsensusResult{}, err
	}
	return r.run()
}

// bind validates the experiment and binds it to the run body.
func (e Fig9Experiment) bind() (consensusRun, error) {
	if err := validateExperiment(e.IDs, e.Crashes, e.Proposals); err != nil {
		return consensusRun{}, err
	}
	return consensusRun{
		crashes: e.Crashes, churn: e.Churn, proposals: e.Proposals,
		stabilize: e.Stabilize, horizon: e.Horizon,
		cfg: sim.Config{IDs: e.IDs, Net: e.Net, Seed: e.Seed, MaxEvents: e.MaxEvents, Recorder: traceRecorder(e.Trace)},
		admit: func(truth *fd.GroundTruth) error {
			if len(truth.EventuallyUp()) == 0 {
				return fmt.Errorf("hds: no process is eventually up — nothing can decide")
			}
			return nil
		},
		stack: func(world *oracle.World, node *sim.Node, proposal Value) decider {
			hs := oracle.NewHSigma(world)
			node.Add("hsigma", hs)
			if e.AnonymousBaseline {
				ao := oracle.NewAOmega(world, e.Adversary)
				node.Add("aomega", ao)
				return core.NewFig9Anonymous(ao, hs, proposal)
			}
			ho := oracle.NewHOmega(world, e.Adversary)
			node.Add("homega", ho)
			return core.NewFig9(ho, hs, proposal)
		},
	}, nil
}

// decider is what the run body needs from a consensus instance.
type decider interface {
	sim.Process
	Decided() core.Outcome
	InvariantErr() error
}

// consensusRun is one validated consensus experiment: the inputs both
// algorithms share, plus the two things they do not — stack, which puts
// process i's detectors on its node and returns its consensus instance,
// and admit, which vets the fault pattern of a churn run (Fig. 8's t
// budget, Fig. 9's non-empty eventually-up set).
type consensusRun struct {
	crashes   map[PID]Time
	churn     ChurnSpec
	proposals []Value
	stabilize Time
	horizon   Time
	cfg       sim.Config
	admit     func(*fd.GroundTruth) error
	stack     func(*oracle.World, *sim.Node, Value) decider
}

// run is the one body behind RunFig8 and RunFig9. Crash-stop is the churn
// schedule with no recover events, so both go through the same fault
// pattern, engine schedule and until-predicate; what a churn spec adds is
// decided here from r.churn alone: schedule-vs-horizon validation, the
// admit check, the stabilization default, decision-stability monitoring,
// the engine-vs-truth cross-check, and Termination over "eventually-up"
// instead of "correct" processes.
func (r consensusRun) run() (ConsensusResult, error) {
	ids := r.cfg.IDs
	churn := r.churn.Fraction > 0
	if r.horizon == 0 {
		r.horizon = 1_000_000
	}
	schedule, truth, err := FaultPattern(ids, r.churn, r.crashes, r.horizon)
	if err != nil {
		return ConsensusResult{}, err
	}
	if churn {
		if err := r.admit(truth); err != nil {
			return ConsensusResult{}, err
		}
		if r.stabilize == 0 {
			r.stabilize = truth.LastChange() + 50
		}
	}
	if r.proposals == nil {
		r.proposals = DefaultProposals(ids.N())
	}

	eng := sim.New(r.cfg)
	world := oracle.NewWorld(truth, r.stabilize)
	insts := make([]decider, ids.N())
	for i := range insts {
		node := sim.NewNode()
		insts[i] = r.stack(world, node, r.proposals[i])
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
	eng.RunUntil(r.horizon, untilDecided(truth.EventuallyUp(), insts, r.cfg.Recorder))

	// A failed run still reports what it cost and why it stopped.
	failed := ConsensusResult{Stats: r.cfg.Recorder.Stats(), Stopped: eng.Stopped()}
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
	res, err := VerifyConsensus(truth, churn, r.proposals, outcomes)
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
func VerifyConsensus(truth *fd.GroundTruth, churn bool, proposals []Value, outcomes []core.Outcome) (ConsensusResult, error) {
	verify := check.Consensus
	if churn {
		verify = check.ConsensusChurn
	}
	rep, err := verify(truth, proposals, outcomes)
	if err != nil {
		return ConsensusResult{}, err
	}
	res := ConsensusResult{
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

// DefaultProposals is the proposal vector every runner uses when the
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
// rather than panics: runner inputs are user-facing.
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

// traceRecorder returns the recorder an experiment runs with: the caller-
// provided one (which may retain events in memory or stream them through a
// trace.Sink) or the stats-only default. Runners read Stats from it either
// way; callers that attach a sink flush it themselves after the run.
func traceRecorder(custom *trace.Recorder) *trace.Recorder {
	if custom != nil {
		return custom
	}
	return &trace.Recorder{}
}
