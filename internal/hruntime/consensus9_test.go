package hruntime

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
)

// liveConsensus9 runs Figure 9 live over class-conform HΩ and HΣ oracles
// that stabilize 30ms in (HΣ is implementable in HSS, not in the
// asynchronous live cluster; the oracle world must be told who will crash,
// since a live run cannot know the future). Until then the elected
// identifier rotates, as under the simulator's flapping-leader adversary.
func liveConsensus9(t *testing.T, ids ident.Assignment, crash map[int]time.Duration, seed int64) {
	t.Helper()
	truth := crashTruth(ids, crash)
	world := oracle.NewWorld(truth, 30)
	opts := Options{Seed: seed, MinDelay: 100 * time.Microsecond, MaxDelay: 600 * time.Microsecond}
	liveRun(t, truth, opts, crash, func(node *sim.Node, v core.Value) decider {
		d1, d2 := oracle.NewHOmega(world, oracle.AdversaryRotate), oracle.NewHSigma(world)
		node.Add("homega", d1).Add("hsigma", d2)
		return core.NewFig9(d1, d2, v)
	})
}

func TestLiveFig9FailureFree(t *testing.T) {
	liveConsensus9(t, ident.Balanced(4, 2), nil, 11)
}

func TestLiveFig9MinorityCorrect(t *testing.T) {
	// 3 of 5 crash — beyond any majority; Fig. 9 still decides live.
	crash := map[int]time.Duration{
		0: 5 * time.Millisecond,
		2: 10 * time.Millisecond,
		4: 15 * time.Millisecond,
	}
	liveConsensus9(t, ident.Balanced(5, 2), crash, 12)
}

func TestLiveFig9Anonymous(t *testing.T) {
	liveConsensus9(t, ident.AnonymousN(4), nil, 13)
}

func TestLiveFig9Homonymous(t *testing.T) {
	crash := map[int]time.Duration{1: 8 * time.Millisecond}
	liveConsensus9(t, ident.Assignment{"x", "x", "y", "y", "z"}, crash, 14)
}
