package fd

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// Result reports a successful class check, with the measured stabilization
// time: the latest instant at which any correct process's output changed
// for the last time. (A checker can only certify the recorded prefix of an
// infinite execution; "eventually forever" is read as "held from the final
// change to the end of the recording", which is exact for detectors that
// provably stop changing.)
type Result struct {
	StabilizationTime sim.Time
}

// stabilization computes the max last-change time over eventually-up
// processes (= correct processes in crash-stop). It needs only final
// views, so it serves the materialized and streaming pipelines alike.
func stabilization[T any](g *GroundTruth, pr FinalView[T]) sim.Time {
	var worst sim.Time
	for _, p := range g.EventuallyUp() {
		if t := pr.LastChange(p); t > worst {
			worst = t
		}
	}
	return worst
}

// CheckDiamondHPbar verifies class ◇HP̄: every eventually-up process's
// final trusted multiset equals I(EventuallyUp). In crash-stop executions
// EventuallyUp is exactly the Correct set, so this is the paper's property
// verbatim; under crash-recovery churn the class is restated relative to
// the eventually-up processes — the only set a heartbeat-driven detector
// can converge to.
func CheckDiamondHPbar(g *GroundTruth, pr FinalView[*multiset.Multiset[ident.ID]]) (Result, error) {
	want := g.EventuallyUpIDs()
	for _, p := range g.EventuallyUp() {
		got, ok := pr.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("◇HP̄ liveness: eventually-up process %d produced no output", p)
		}
		if !got.Equal(want) {
			return Result{}, fmt.Errorf("◇HP̄ liveness: process %d trusts %v, want I(EventuallyUp) = %v", p, got, want)
		}
	}
	return Result{StabilizationTime: stabilization(g, pr)}, nil
}

// CheckHOmega verifies class HΩ: eventually all eventually-up processes
// output the same pair (ℓ, c) with ℓ ∈ I(EventuallyUp) and
// c = mult_{I(EventuallyUp)}(ℓ). In crash-stop executions this is the
// paper's property over the Correct set.
func CheckHOmega(g *GroundTruth, pr FinalView[LeaderInfo]) (Result, error) {
	up := g.EventuallyUp()
	if len(up) == 0 {
		return Result{}, nil
	}
	first, ok := pr.Last(up[0])
	if !ok {
		return Result{}, fmt.Errorf("HΩ election: eventually-up process %d produced no output", up[0])
	}
	for _, p := range up[1:] {
		got, ok := pr.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("HΩ election: eventually-up process %d produced no output", p)
		}
		if got != first {
			return Result{}, fmt.Errorf("HΩ election: processes %d and %d disagree: %v vs %v", up[0], p, first, got)
		}
	}
	cids := g.EventuallyUpIDs()
	if !cids.Contains(first.ID) {
		return Result{}, fmt.Errorf("HΩ election: elected id %s is not the identifier of any eventually-up process", first.ID)
	}
	if want := cids.Count(first.ID); first.Multiplicity != want {
		return Result{}, fmt.Errorf("HΩ election: multiplicity %d for id %s, want %d", first.Multiplicity, first.ID, want)
	}
	return Result{StabilizationTime: stabilization(g, pr)}, nil
}

// CheckSigma verifies the (multiset-generalized) class Σ.
// Liveness: each correct process's final quorum ⊆ I(Correct).
// Safety: every two sampled quorums, across all processes and times, share
// an identifier; in unique-identifier systems a shared identifier is a
// shared process, which is the paper's setting for Σ.
func CheckSigma(g *GroundTruth, pr *Probe[*multiset.Multiset[ident.ID]]) (Result, error) {
	want := g.EventuallyUpIDs()
	for _, p := range g.EventuallyUp() {
		got, ok := pr.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("Σ liveness: eventually-up process %d produced no output", p)
		}
		if !got.SubsetOf(want) {
			return Result{}, fmt.Errorf("Σ liveness: process %d trusts %v ⊄ I(EventuallyUp) = %v", p, got, want)
		}
	}
	var all []sampleAt[*multiset.Multiset[ident.ID]]
	for p := 0; p < pr.N(); p++ {
		for _, s := range pr.History(sim.PID(p)) {
			all = append(all, sampleAt[*multiset.Multiset[ident.ID]]{pid: sim.PID(p), s: s})
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i; j < len(all); j++ {
			if !all[i].s.Value.Intersects(all[j].s.Value) {
				return Result{}, fmt.Errorf("Σ safety: quorum %v (p%d@%d) and %v (p%d@%d) are disjoint",
					all[i].s.Value, all[i].pid, all[i].s.Time, all[j].s.Value, all[j].pid, all[j].s.Time)
			}
		}
	}
	return Result{StabilizationTime: stabilization(g, pr)}, nil
}

type sampleAt[T any] struct {
	pid sim.PID
	s   Sample[T]
}

// CheckAliveList verifies class 𝔈 (Definition 1), restated over the
// eventually-up set (= Correct in crash-stop): in every eventually-up
// process's final alive list, each eventually-up identifier has
// rank ≤ |EventuallyUp|.
func CheckAliveList(g *GroundTruth, pr FinalView[[]ident.ID]) (Result, error) {
	up := g.EventuallyUp()
	for _, p := range up {
		alive, ok := pr.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("𝔈 liveness: eventually-up process %d produced no output", p)
		}
		for _, q := range up {
			r := Rank(g.IDs[q], alive)
			if r == 0 || r > len(up) {
				return Result{}, fmt.Errorf("𝔈 liveness: at process %d, rank(%s) = %d > |EventuallyUp| = %d (alive=%v)",
					p, g.IDs[q], r, len(up), alive)
			}
		}
	}
	return Result{StabilizationTime: stabilization(g, pr)}, nil
}

// CheckAP verifies class AP. Safety: at every sample time T the output is
// ≥ the number of alive processes at T. Liveness: every correct process's
// final output equals |Correct|.
func CheckAP(g *GroundTruth, pr *Probe[int]) (Result, error) {
	for p := 0; p < pr.N(); p++ {
		for _, s := range pr.History(sim.PID(p)) {
			if alive := g.AliveCountAt(s.Time); s.Value < alive {
				return Result{}, fmt.Errorf("AP safety: process %d output %d at t=%d with %d processes alive", p, s.Value, s.Time, alive)
			}
		}
	}
	want := len(g.EventuallyUp())
	for _, p := range g.EventuallyUp() {
		got, ok := pr.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("AP liveness: eventually-up process %d produced no output", p)
		}
		if got != want {
			return Result{}, fmt.Errorf("AP liveness: process %d converged to %d, want |EventuallyUp| = %d", p, got, want)
		}
	}
	return Result{StabilizationTime: stabilization(g, pr)}, nil
}

// CheckAOmega verifies class AΩ: in the final samples, exactly one correct
// process's Boolean is true.
func CheckAOmega(g *GroundTruth, pr FinalView[bool]) (Result, error) {
	leaders := 0
	for _, p := range g.EventuallyUp() {
		v, ok := pr.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("AΩ election: eventually-up process %d produced no output", p)
		}
		if v {
			leaders++
		}
	}
	if leaders != 1 {
		return Result{}, fmt.Errorf("AΩ election: %d eventually-up processes consider themselves leader, want exactly 1", leaders)
	}
	return Result{StabilizationTime: stabilization(g, pr)}, nil
}
