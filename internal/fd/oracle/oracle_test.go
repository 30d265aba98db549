package oracle

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// ticker keeps virtual time moving so that time-driven oracle outputs are
// observed; oracles themselves are passive.
type ticker struct{ env sim.Environment }

func (tk *ticker) Init(env sim.Environment) { tk.env = env; env.SetTimer(1, 0) }
func (tk *ticker) OnMessage(any)            {}
func (tk *ticker) OnTimer(tag int)          { tk.env.SetTimer(1, tag) }

type fixture struct {
	eng   *sim.Engine
	truth *fd.GroundTruth
	world *World
}

func newFixture(ids ident.Assignment, crashes map[sim.PID]sim.Time, stabilize sim.Time, build func(w *World, i int) sim.Process) *fixture {
	eng := sim.New(sim.Config{IDs: ids, Seed: 1})
	truth := fd.NewGroundTruth(ids, crashes)
	world := NewWorld(truth, stabilize)
	for i := 0; i < ids.N(); i++ {
		node := sim.NewNode().Add("tick", &ticker{}).Add("fd", build(world, i))
		eng.AddProcess(node)
	}
	eng.CrashSchedule(crashes)
	return &fixture{eng: eng, truth: truth, world: world}
}

func TestHOmegaOracleAllAdversaries(t *testing.T) {
	ids := ident.Assignment{"a", "a", "b"}
	crashes := map[sim.PID]sim.Time{0: 30}
	for _, mode := range []Adversary{AdversaryNone, AdversaryRotate, AdversarySplit} {
		oracles := make([]*HOmega, ids.N())
		fx := newFixture(ids, crashes, 100, func(w *World, i int) sim.Process {
			oracles[i] = NewHOmega(w, mode)
			return oracles[i]
		})
		pr := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) (fd.LeaderInfo, bool) {
			if fx.eng.Crashed(p) {
				return fd.LeaderInfo{}, false
			}
			return oracles[p].Leader()
		}, func(a, b fd.LeaderInfo) bool { return a == b })
		fx.eng.Run(300)
		if _, err := fd.CheckHOmega(fx.truth, pr); err != nil {
			t.Errorf("mode %d: %v", mode, err)
		}
		li, _ := oracles[1].Leader()
		if li.ID != "a" || li.Multiplicity != 1 {
			t.Errorf("mode %d: leader = %v, want (a, 1): p0 crashed so only one 'a' is correct", mode, li)
		}
	}
}

func TestHOmegaOracleFlapsBeforeStabilization(t *testing.T) {
	ids := ident.Unique(4)
	oracles := make([]*HOmega, ids.N())
	fx := newFixture(ids, nil, 200, func(w *World, i int) sim.Process {
		oracles[i] = NewHOmega(w, AdversaryRotate)
		return oracles[i]
	})
	pr := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) (fd.LeaderInfo, bool) {
		return oracles[p].Leader()
	}, func(a, b fd.LeaderInfo) bool { return a == b })
	fx.eng.Run(400)
	if len(pr.History(0)) < 3 {
		t.Errorf("rotating adversary produced only %d distinct outputs; no flapping", len(pr.History(0)))
	}
	if _, err := fd.CheckHOmega(fx.truth, pr); err != nil {
		t.Errorf("flapping must still satisfy the class eventually: %v", err)
	}
}

func TestDiamondHPbarOracle(t *testing.T) {
	ids := ident.Balanced(5, 2)
	crashes := map[sim.PID]sim.Time{2: 40}
	oracles := make([]*DiamondHPbar, ids.N())
	fx := newFixture(ids, crashes, 100, func(w *World, i int) sim.Process {
		oracles[i] = NewDiamondHPbar(w)
		return oracles[i]
	})
	pr := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		if fx.eng.Crashed(p) {
			return nil, false
		}
		return oracles[p].Trusted(), true
	}, func(a, b *multiset.Multiset[ident.ID]) bool { return a.Equal(b) })
	fx.eng.Run(300)
	if _, err := fd.CheckDiamondHPbar(fx.truth, pr); err != nil {
		t.Fatal(err)
	}
}

func TestAPOracleWithSlack(t *testing.T) {
	ids := ident.AnonymousN(4)
	crashes := map[sim.PID]sim.Time{1: 50}
	oracles := make([]*AP, ids.N())
	fx := newFixture(ids, crashes, 120, func(w *World, i int) sim.Process {
		oracles[i] = NewAP(w, 2)
		return oracles[i]
	})
	pr := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) (int, bool) {
		if fx.eng.Crashed(p) {
			return 0, false
		}
		return oracles[p].AliveCount(), true
	}, func(a, b int) bool { return a == b })
	fx.eng.Run(300)
	if _, err := fd.CheckAP(fx.truth, pr); err != nil {
		t.Fatal(err)
	}
}

func TestSigmaOracle(t *testing.T) {
	ids := ident.Unique(4)
	crashes := map[sim.PID]sim.Time{3: 60}
	oracles := make([]*Sigma, ids.N())
	fx := newFixture(ids, crashes, 150, func(w *World, i int) sim.Process {
		oracles[i] = NewSigma(w)
		return oracles[i]
	})
	pr := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		if fx.eng.Crashed(p) {
			return nil, false
		}
		return oracles[p].TrustedQuorum(), true
	}, func(a, b *multiset.Multiset[ident.ID]) bool { return a.Equal(b) })
	fx.eng.Run(400)
	if _, err := fd.CheckSigma(fx.truth, pr); err != nil {
		t.Fatal(err)
	}
}

func TestASigmaOracle(t *testing.T) {
	ids := ident.AnonymousN(5)
	crashes := map[sim.PID]sim.Time{0: 40, 1: 70}
	oracles := make([]*ASigma, ids.N())
	fx := newFixture(ids, crashes, 150, func(w *World, i int) sim.Process {
		oracles[i] = NewASigma(w)
		return oracles[i]
	})
	pr := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) ([]fd.APair, bool) {
		if fx.eng.Crashed(p) {
			return nil, false
		}
		return oracles[p].ASigma(), true
	}, func(a, b []fd.APair) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	})
	fx.eng.Run(400)
	if _, err := fd.CheckASigma(fx.truth, pr); err != nil {
		t.Fatal(err)
	}
}

func TestHSigmaOracle(t *testing.T) {
	ids := ident.Assignment{"A", "A", "B"}
	crashes := map[sim.PID]sim.Time{1: 30}
	oracles := make([]*HSigma, ids.N())
	fx := newFixture(ids, crashes, 100, func(w *World, i int) sim.Process {
		oracles[i] = NewHSigma(w)
		return oracles[i]
	})
	quora := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) ([]fd.QuorumPair, bool) {
		if fx.eng.Crashed(p) {
			return nil, false
		}
		return oracles[p].Quora(), true
	}, func(a, b []fd.QuorumPair) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Label != b[i].Label || !a[i].M.Equal(b[i].M) {
				return false
			}
		}
		return true
	})
	labels := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) ([]fd.Label, bool) {
		if fx.eng.Crashed(p) {
			return nil, false
		}
		return oracles[p].Labels(), true
	}, fd.LabelsEqual)
	fx.eng.Run(300)
	if _, err := fd.CheckHSigma(fx.truth, quora, labels); err != nil {
		t.Fatal(err)
	}
}

func TestAOmegaOracle(t *testing.T) {
	ids := ident.AnonymousN(4)
	crashes := map[sim.PID]sim.Time{0: 30}
	for _, mode := range []Adversary{AdversaryNone, AdversaryRotate, AdversarySplit} {
		oracles := make([]*AOmega, ids.N())
		fx := newFixture(ids, crashes, 100, func(w *World, i int) sim.Process {
			oracles[i] = NewAOmega(w, mode)
			return oracles[i]
		})
		pr := fd.NewProbe(fx.eng, ids.N(), func(p sim.PID) (bool, bool) {
			if fx.eng.Crashed(p) {
				return false, false
			}
			return oracles[p].IsLeader(), true
		}, func(a, b bool) bool { return a == b })
		fx.eng.Run(300)
		if _, err := fd.CheckAOmega(fx.truth, pr); err != nil {
			t.Errorf("mode %d: %v", mode, err)
		}
	}
}

// clockEnv is the Environment TestNextChangeSound drives oracles with: a
// clock the test sets and a PID, all an oracle reads of its environment.
type clockEnv struct {
	sim.Environment
	now sim.Time
	pid sim.PID
}

func (e *clockEnv) Now() sim.Time { return e.now }
func (e *clockEnv) PID() sim.PID  { return e.pid }

// hsigmaOutput is an HΣ output by slice identity: the first element and
// the length of h_labels and h_quora.
type hsigmaOutput struct {
	labels  *fd.Label
	nLabels int
	quora   *fd.QuorumPair
	nQuora  int
}

// TestNextChangeSound holds fd.Timed's contract on every oracle that
// implements it, in every adversary mode (HΣ has none; it runs under each),
// at every process and every instant t in [0, 3·Stabilize]: NextChange(t)
// is after t, and the output is the same at every instant of
// [t, NextChange(t)) up to 3·Stabilize — HΣ's by slice identity, the way
// the consensus step memo compares it. Stabilization instants on and off
// the RotatePeriod grid are covered, and p0 crashes, so h_labels differ
// between processes once stable.
//
// Verified to fail when World.nextChange answers Stabilize+1 for
// Stabilize (the output then changes one instant inside the promise).
func TestNextChangeSound(t *testing.T) {
	ids := ident.Assignment{"a", "a", "b", "c"}
	truth := fd.NewGroundTruth(ids, map[sim.PID]sim.Time{0: 20})
	for _, stabilize := range []sim.Time{0, 1, 6, 7, 30, 35, 100} {
		w := NewWorld(truth, stabilize)
		end := 3 * stabilize
		for _, mode := range []Adversary{AdversaryNone, AdversaryRotate, AdversarySplit} {
			for p := range ids {
				env := &clockEnv{pid: sim.PID(p)}
				ho, ao, hs := NewHOmega(w, mode), NewAOmega(w, mode), NewHSigma(w)
				ho.Init(env)
				ao.Init(env)
				hs.Init(env)
				subjects := []struct {
					name  string
					timed fd.Timed
					out   func() any
				}{
					{"HOmega", ho, func() any { li, ok := ho.Leader(); return fmt.Sprint(li, ok) }},
					{"AOmega", ao, func() any { return ao.IsLeader() }},
					{"HSigma", hs, func() any { return hsigmaOutput{&hs.Labels()[0], len(hs.Labels()), &hs.Quora()[0], len(hs.Quora())} }},
				}
				for _, s := range subjects {
					outs := make([]any, end+1)
					for u := range outs {
						env.now = sim.Time(u)
						outs[u] = s.out()
					}
					for at := sim.Time(0); at <= end; at++ {
						env.now = at
						next := s.timed.NextChange(at)
						if next <= at {
							t.Fatalf("stabilize=%d mode=%d p%d %s: NextChange(%d) = %d, want > %d", stabilize, mode, p, s.name, at, next, at)
						}
						for u := at + 1; u < next && u <= end; u++ {
							if outs[u] != outs[at] {
								t.Fatalf("stabilize=%d mode=%d p%d %s: NextChange(%d) = %d, but the output changes at %d",
									stabilize, mode, p, s.name, at, next, u)
							}
						}
					}
				}
			}
		}
	}
}
