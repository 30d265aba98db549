package reduce

import (
	"repro/internal/fd"
	"repro/internal/fd/alive"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// stabilize is the virtual time from which the source oracles are
	// stable and truthful; horizon is how long every deployment runs.
	stabilize sim.Time = 120
	horizon   sim.Time = 800
)

// Stack builds one process's module stack on node — an oracle of the
// source class reading world, the transformation(s) on top — and returns
// the emulated detector. Module names and their order reach the trace.
type Stack[D any] func(world *oracle.World, node *sim.Node) D

// Judge attaches a target class's probe(s) to a deployed system and
// returns that class's checker over them, to be called after the run.
type Judge[D any] func(eng *sim.Engine, truth *fd.GroundTruth, dets []D) func() (fd.Result, error)

// Deployment is one reduction experiment: Stack at each of IDs'
// processes, Crashes applied, the emulated output sampled whenever it can
// change and judged against the Target class's axioms.
type Deployment[D any] struct {
	IDs     ident.Assignment
	Crashes map[sim.PID]sim.Time
	Seed    int64
	Stack   Stack[D]
	Target  Judge[D]
}

// Outcome is what a deployment's run produced: the class checker's
// result, the message costs and the deployed detectors in PID order.
type Outcome[D any] struct {
	fd.Result
	Stats     trace.Stats
	Detectors []D
}

// Run executes the deployment. The error is the target class checker's.
func (d Deployment[D]) Run() (Outcome[D], error) {
	rec := &trace.Recorder{}
	eng := sim.New(sim.Config{IDs: d.IDs, Seed: d.Seed, Recorder: rec})
	truth := fd.NewGroundTruth(d.IDs, d.Crashes)
	world := oracle.NewWorld(truth, stabilize)
	dets := make([]D, d.IDs.N())
	for i := range dets {
		node := sim.NewNode()
		dets[i] = d.Stack(world, node)
		eng.AddProcess(node)
	}
	check := d.Target(eng, truth, dets)
	eng.CrashSchedule(d.Crashes)
	eng.Run(horizon)
	res, err := check()
	return Outcome[D]{Result: res, Stats: rec.Stats(), Detectors: dets}, err
}

// whileUp restricts a detector read to live processes: a crashed process
// has no output.
func whileUp[T any](eng *sim.Engine, get func(p sim.PID) (T, bool)) func(p sim.PID) (T, bool) {
	return func(p sim.PID) (T, bool) {
		if eng.Crashed(p) {
			var none T
			return none, false
		}
		return get(p)
	}
}

// The four target classes. CheckHSigma and CheckSigma quantify over whole
// executions (monotonicity, pairwise intersection of every quorum ever
// output), so HΣ and Σ are sampled into history-keeping Probes;
// CheckDiamondHPbar and CheckHOmega read a FinalView, so ◇HP̄ and HΩ run
// on bare StreamProbes.

// JudgeHSigma samples h_quora and h_labels and checks the four HΣ axioms.
func JudgeHSigma(eng *sim.Engine, truth *fd.GroundTruth, dets []fd.HSigma) func() (fd.Result, error) {
	quora := fd.NewProbe(eng, len(dets), whileUp(eng, func(p sim.PID) ([]fd.QuorumPair, bool) {
		return dets[p].Quora(), true
	}), fd.QuoraEqual)
	labels := fd.NewProbe(eng, len(dets), whileUp(eng, func(p sim.PID) ([]fd.Label, bool) {
		return dets[p].Labels(), true
	}), fd.LabelsEqual)
	return func() (fd.Result, error) { return fd.CheckHSigma(truth, quora, labels) }
}

// JudgeSigma samples the emulated Σ quorum once it exists and checks Σ.
func JudgeSigma(eng *sim.Engine, truth *fd.GroundTruth, dets []*HSigmaToSigma) func() (fd.Result, error) {
	pr := fd.NewProbe(eng, len(dets), whileUp(eng, func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		if !dets[p].HasOutput() {
			return nil, false
		}
		return dets[p].TrustedQuorum(), true
	}), fd.MultisetEqual)
	return func() (fd.Result, error) { return fd.CheckSigma(truth, pr) }
}

// JudgeDiamondHPbar samples h_trusted and checks ◇HP̄.
func JudgeDiamondHPbar(eng *sim.Engine, truth *fd.GroundTruth, dets []fd.DiamondHPbar) func() (fd.Result, error) {
	pr := fd.NewStreamProbe(eng, len(dets), whileUp(eng, func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		return dets[p].Trusted(), true
	}), fd.MultisetEqual)
	return func() (fd.Result, error) { return fd.CheckDiamondHPbar(truth, pr) }
}

// JudgeHOmega samples (h_leader, h_multiplicity) and checks HΩ.
func JudgeHOmega(eng *sim.Engine, truth *fd.GroundTruth, dets []fd.HOmega) func() (fd.Result, error) {
	pr := fd.NewStreamProbe(eng, len(dets), whileUp(eng, func(p sim.PID) (fd.LeaderInfo, bool) {
		return dets[p].Leader()
	}), func(a, b fd.LeaderInfo) bool { return a == b })
	return func() (fd.Result, error) { return fd.CheckHOmega(truth, pr) }
}

// The eight stacks of the Figure 5 diagram. Every transformation polls at
// its default rate.

// StackFig1 is Σ → HΣ with known membership (Theorem 1(1)).
func StackFig1(w *oracle.World, node *sim.Node) fd.HSigma {
	src := oracle.NewSigma(w)
	xf := NewSigmaToHSigmaKnown(src, w.Truth.IDs.I())
	node.Add("sigma", src).Add("fig1", xf)
	return xf
}

// StackFig2 is Σ → HΣ with unknown membership (Theorem 1(2)).
func StackFig2(w *oracle.World, node *sim.Node) fd.HSigma {
	src := oracle.NewSigma(w)
	xf := NewSigmaToHSigmaUnknown(src)
	node.Add("sigma", src).Add("fig2", xf)
	return xf
}

// fig4On stacks 𝔈 (Figure 3) and Figure 4 on an HΣ source already on node.
func fig4On(node *sim.Node, src fd.HSigma) *HSigmaToSigma {
	al := alive.New()
	xf := NewHSigmaToSigma(src, al)
	node.Add("alive", al).Add("fig4", xf)
	return xf
}

// StackFig4 is HΣ → Σ using the 𝔈 alive list (Theorem 2).
func StackFig4(w *oracle.World, node *sim.Node) *HSigmaToSigma {
	src := oracle.NewHSigma(w)
	node.Add("hsigma", src)
	return fig4On(node, src)
}

// StackFig2Fig4 is the composite Σ → HΣ → Σ (Corollary 1).
func StackFig2Fig4(w *oracle.World, node *sim.Node) *HSigmaToSigma {
	return fig4On(node, StackFig2(w, node))
}

// StackThm3 is AΣ → HΣ (Theorem 3).
func StackThm3(w *oracle.World, node *sim.Node) fd.HSigma {
	src := oracle.NewASigma(w)
	xf := NewASigmaToHSigma(src)
	node.Add("asigma", src).Add("thm3", xf)
	return xf
}

// StackLemma2 is AP → ◇HP̄ in anonymous systems (Lemma 2).
func StackLemma2(w *oracle.World, node *sim.Node) fd.DiamondHPbar {
	src := oracle.NewAP(w, 0)
	xf := NewAPToDiamondHPbar(src)
	node.Add("ap", src).Add("lemma2", xf)
	return xf
}

// StackLemma3 is AP → HΣ in anonymous systems (Lemma 3).
func StackLemma3(w *oracle.World, node *sim.Node) fd.HSigma {
	src := oracle.NewAP(w, 0)
	xf := NewAPToHSigma(src)
	node.Add("ap", src).Add("lemma3", xf)
	return xf
}

// StackObs1 is ◇HP̄ → HΩ (Observation 1).
func StackObs1(w *oracle.World, node *sim.Node) fd.HOmega {
	src := oracle.NewDiamondHPbar(w)
	xf := NewDiamondHPbarToHOmega(src)
	node.Add("ohp", src).Add("obs1", xf)
	return xf
}
