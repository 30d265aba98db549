package core_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/variant_traces.txt from the current behaviour")

// variantInst is what the pin reads off an instance of either algorithm.
type variantInst interface {
	sim.Process
	Decided() core.Outcome
	InvariantErr() error
	Round() int
	Rejoining() bool
}

// TestVariantTraces pins all five constructors at event granularity: for
// each of them × {failure-free, a crash during a broadcast, churn that
// takes the whole leader group down and back} × 2 seeds, the sha256 of the
// retained text trace of a run to the horizon plus every process's round,
// decision and Rejoining() flag are compared with
// testdata/variant_traces.txt. The hdsim goldens do the same for NewFig8 /
// NewFig9 / NewFig9Anonymous only; this file is what holds
// NewFig8NoCoordination and NewFig8Alpha in place when the round machinery
// under them moves. No combination is skipped: every variant runs under
// every schedule (the ablation bounded by SetMaxRounds), and a decision is
// not required — only that the run is the one recorded.
func TestVariantTraces(t *testing.T) {
	// Two holders of the smallest identifier: HΩ's stable leader group is
	// {p0, p1}, AΩ's stable leader is p0.
	ids := ident.Assignment{"a", "a", "b", "c", "d"}
	const (
		tolerated = 2
		horizon   = 1000
	)
	variants := []struct {
		name   string
		knownN bool
		build  func(w *oracle.World, node *sim.Node, v core.Value) variantInst
	}{
		{"fig8", true, func(w *oracle.World, node *sim.Node, v core.Value) variantInst {
			d := oracle.NewHOmega(w, oracle.AdversaryRotate)
			node.Add("homega", d)
			return core.NewFig8(d, tolerated, v)
		}},
		{"fig8-nocoord", true, func(w *oracle.World, node *sim.Node, v core.Value) variantInst {
			d := oracle.NewHOmega(w, oracle.AdversaryRotate)
			node.Add("homega", d)
			c := core.NewFig8NoCoordination(d, tolerated, v)
			c.SetMaxRounds(15) // the ablation need not terminate
			return c
		}},
		{"fig8-alpha", false, func(w *oracle.World, node *sim.Node, v core.Value) variantInst {
			d := oracle.NewHOmega(w, oracle.AdversaryRotate)
			node.Add("homega", d)
			return core.NewFig8Alpha(d, len(ids)-tolerated, v)
		}},
		{"fig9", false, func(w *oracle.World, node *sim.Node, v core.Value) variantInst {
			hs, ho := oracle.NewHSigma(w), oracle.NewHOmega(w, oracle.AdversaryRotate)
			node.Add("hsigma", hs).Add("homega", ho)
			return core.NewFig9(ho, hs, v)
		}},
		{"fig9-anon", false, func(w *oracle.World, node *sim.Node, v core.Value) variantInst {
			hs, ao := oracle.NewHSigma(w), oracle.NewAOmega(w, oracle.AdversaryRotate)
			node.Add("hsigma", hs).Add("aomega", ao)
			return core.NewFig9Anonymous(ao, hs, v)
		}},
	}
	groupChurn := []sim.ChurnEvent{
		{P: 0, At: 4}, {P: 1, At: 6}, // the leader group goes down ...
		{P: 2, At: 31}, {P: 2, At: 33, Recover: true}, // (an outage shorter than a heartbeat: the pre-crash timer survives it)
		{P: 0, At: 140, Recover: true}, {P: 1, At: 150, Recover: true}, // ... and comes back
		{P: 3, At: 155}, {P: 3, At: 400, Recover: true}, // a follower misses the rounds that follow
		{P: 4, At: 600}, {P: 4, At: 700, Recover: true}, // an outage after the decision
	}
	// The leader oracles flap (AdversaryRotate) until stabilize. Under churn
	// they are stable from the start: they then elect the group that is
	// down, so nothing is decided before it is back and the rejoin protocol
	// is on every process's path to a decision.
	schedules := []struct {
		name      string
		truth     *fd.GroundTruth
		stabilize sim.Time
		apply     func(*sim.Engine)
	}{
		{"failure-free", fd.NewGroundTruth(ids, nil), 100, func(*sim.Engine) {}},
		{"crash-mid-broadcast", fd.NewGroundTruth(ids, map[sim.PID]sim.Time{0: 20}), 100,
			func(e *sim.Engine) { e.CrashDuringBroadcast(0, 20, 0.5) }},
		{"leader-group-churn", fd.NewGroundTruthFromChurn(ids, groupChurn), 0,
			func(e *sim.Engine) { e.ApplyChurn(groupChurn) }},
	}

	var b strings.Builder
	for _, v := range variants {
		for _, s := range schedules {
			for seed := int64(1); seed <= 2; seed++ {
				rec := trace.NewRecorder()
				eng := sim.New(sim.Config{IDs: ids, Net: sim.Async{MaxDelay: 8}, Seed: seed, KnownN: v.knownN, Recorder: rec})
				world := oracle.NewWorld(s.truth, s.stabilize)
				insts := make([]variantInst, len(ids))
				for i := range insts {
					node := sim.NewNode()
					insts[i] = v.build(world, node, core.Value(fmt.Sprintf("v%d", i)))
					eng.AddProcess(node.Add("consensus", insts[i]))
				}
				s.apply(eng)
				eng.Run(horizon)
				var text bytes.Buffer
				if err := trace.WriteText(&text, rec.Events()); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %s seed=%d trace sha256 %x events=%d\n", v.name, s.name, seed, sha256.Sum256(text.Bytes()), len(rec.Events()))
				for p, inst := range insts {
					if err := inst.InvariantErr(); err != nil {
						t.Errorf("%s %s seed=%d p%d: %v", v.name, s.name, seed, p, err)
					}
					out := inst.Decided()
					fmt.Fprintf(&b, "  p%d round=%d decided=%q at=%d rejoining=%v\n", p, inst.Round(), string(out.Value), out.Time, inst.Rejoining())
				}
			}
		}
	}
	const path = "testdata/variant_traces.txt"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("variant traces changed:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
