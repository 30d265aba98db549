package fd_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/fd/alive"
	"repro/internal/fd/ohp"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// deployment is one contract run: detectors bound to an engine and, for
// every output a table probes, the reference sampler (refProbe, which
// samples the event's process after every event and everyone at every
// clock advance) beside the signal-driven Probe and StreamProbe.
type deployment struct {
	eng    *sim.Engine
	checks []func() error
}

// watch attaches the three samplers to one output. The reference reads
// nothing from a down process, as the probes do. verdict, when non-nil,
// is the output's checker: it must rule identically through all three.
func watch[T any](d *deployment, name string, n int, get func(sim.PID) (T, bool), eq func(a, b T) bool, verdict func(fd.FinalView[T]) (fd.Result, error)) {
	ref := refProbe(d.eng, n, func(p sim.PID) (T, bool) {
		if d.eng.Crashed(p) {
			var zero T
			return zero, false
		}
		return get(p)
	}, eq)
	probe := fd.NewProbe(d.eng, n, get, eq)
	stream := fd.NewStreamProbe(d.eng, n, get, eq)
	d.checks = append(d.checks, func() error {
		if err := diffReference(name, ref, probe, eq); err != nil {
			return err
		}
		for p := sim.PID(0); int(p) < n; p++ {
			pv, pok := probe.Last(p)
			sv, sok := stream.Last(p)
			if pok != sok || (pok && !eq(pv, sv)) || probe.LastChange(p) != stream.LastChange(p) {
				return fmt.Errorf("%s p%d: the StreamProbe's final view differs from the Probe's", name, p)
			}
		}
		if verdict == nil {
			return nil
		}
		rr, errR := verdict(ref)
		rp, errP := verdict(probe)
		rs, errS := verdict(stream)
		if want := fmt.Sprint(rr, errR); fmt.Sprint(rp, errP) != want || fmt.Sprint(rs, errS) != want {
			return fmt.Errorf("%s: verdicts diverge:\nreference: %v %v\nprobe:     %v %v\nstream:    %v %v", name, rr, errR, rp, errP, rs, errS)
		}
		return nil
	})
}

// run runs the deployment to horizon and returns the first difference.
func (d *deployment) run(horizon sim.Time) error {
	d.eng.Run(horizon)
	for _, c := range d.checks {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// watchOHP watches the two outputs runOHP probes — h_trusted and the HΩ
// leader — and judges them with ◇HP̄ and HΩ.
func watchOHP(d *deployment, name string, truth *fd.GroundTruth, dets []*ohp.Detector) {
	watch(d, name+" trusted", len(dets), func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		return dets[p].Trusted(), true
	}, fd.MultisetEqual, func(v fd.FinalView[*multiset.Multiset[ident.ID]]) (fd.Result, error) {
		return fd.CheckDiamondHPbar(truth, v)
	})
	watch(d, name+" leader", len(dets), func(p sim.PID) (fd.LeaderInfo, bool) {
		return dets[p].Leader()
	}, fd.LeaderEqual, func(v fd.FinalView[fd.LeaderInfo]) (fd.Result, error) {
		return fd.CheckHOmega(truth, v)
	})
}

// ohpDeployment binds one Figure 6 detector per process, made by mk (a
// bare ohp.New, E16's fixed-timeout ablation, a node around either), and
// watches its outputs.
func ohpDeployment(name string, ids ident.Assignment, net sim.Model, seed int64, truth *fd.GroundTruth, mk func(*sim.Engine) *ohp.Detector) *deployment {
	d := &deployment{eng: sim.New(sim.Config{IDs: ids, Net: net, Seed: seed})}
	dets := make([]*ohp.Detector, ids.N())
	for i := range dets {
		dets[i] = mk(d.eng)
	}
	watchOHP(d, name, truth, dets)
	return d
}

// bare binds a plain detector.
func bare(newDet func() *ohp.Detector) func(*sim.Engine) *ohp.Detector {
	return func(eng *sim.Engine) *ohp.Detector {
		det := newDet()
		eng.AddProcess(det)
		return det
	}
}

// requireSignals fails unless exactly the processes want names signal.
func requireSignals(t *testing.T, name string, eng *sim.Engine, n int, want func(sim.PID) bool) {
	t.Helper()
	for p := sim.PID(0); int(p) < n; p++ {
		if eng.Signals(p) != want(p) {
			t.Fatalf("%s: Signals(%d) = %v, want %v", name, p, eng.Signals(p), want(p))
		}
	}
}

func always(sim.PID) bool { return true }

// TestSignalledProbeMatchesReference is the change-driven sampler's
// contract: for every detector that signals and that the tables probe,
// and for a mixed stack that must fall back to the per-event rule, the
// signal-driven Probe stores the reference's histories sample for sample,
// a bare StreamProbe ends on the same final view, and the checkers rule
// identically through all three.
func TestSignalledProbeMatchesReference(t *testing.T) {
	t.Run("ohp crash-stop", func(t *testing.T) {
		ids := ident.Balanced(6, 3)
		crashes := map[sim.PID]sim.Time{1: 30, 4: 400}
		d := ohpDeployment("crash-stop", ids, sim.PartialSync{GST: 50, Delta: 5}, 3, fd.NewGroundTruth(ids, crashes), bare(ohp.New))
		d.eng.CrashSchedule(crashes)
		if err := d.run(3000); err != nil {
			t.Fatal(err)
		}
		requireSignals(t, "crash-stop", d.eng, ids.N(), always)
	})
	t.Run("ohp churn and recoveries", func(t *testing.T) {
		ids := ident.Balanced(8, 4)
		evs := sim.ChurnSpec{Fraction: 0.25, Cycles: 2, Down: 40, Up: 60}.Events(ids.N())
		d := ohpDeployment("churn", ids, sim.PartialSync{GST: 60, Delta: 4}, 11, fd.NewGroundTruthFromChurn(ids, evs), bare(ohp.New))
		d.eng.ApplyChurn(evs)
		// A crash in the middle of a broadcast, and a recovery after it.
		d.eng.CrashDuringBroadcast(5, 90, 0.5)
		d.eng.RecoverAt(5, 250)
		if err := d.run(3000); err != nil {
			t.Fatal(err)
		}
		if d.eng.Recoveries() == 0 {
			t.Fatal("no process recovered")
		}
	})
	for _, to := range []sim.Time{1, 20} {
		t.Run(fmt.Sprintf("E16 fixed timeout %d", to), func(t *testing.T) {
			ids := ident.Balanced(4, 2)
			d := ohpDeployment("E16", ids, sim.PartialSync{GST: 40, Delta: 6, PreLoss: 0.5}, 5, fd.NewGroundTruth(ids, nil),
				bare(func() *ohp.Detector { return ohp.NewFixedTimeout(to) }))
			if err := d.run(4000); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("ohp in a node", func(t *testing.T) {
		ids := ident.Balanced(5, 2)
		crashes := map[sim.PID]sim.Time{2: 100}
		d := ohpDeployment("node", ids, sim.PartialSync{GST: 30, Delta: 5}, 7, fd.NewGroundTruth(ids, crashes), func(eng *sim.Engine) *ohp.Detector {
			det := ohp.New()
			eng.AddProcess(sim.NewNode().Add("ohp", det))
			return det
		})
		d.eng.CrashSchedule(crashes)
		if err := d.run(2000); err != nil {
			t.Fatal(err)
		}
		requireSignals(t, "node", d.eng, ids.N(), always)
	})
	t.Run("mixed node with an oracle", func(t *testing.T) {
		// Even PIDs run the detector alone on a node, which signals; odd
		// PIDs run it beside a rotating HΩ oracle, which does not, so
		// their node does not either. The oracle's leader moves with the
		// clock alone: only the clock-advance sweep sees it.
		ids := ident.Balanced(6, 3)
		crashes := map[sim.PID]sim.Time{3: 150}
		truth := fd.NewGroundTruth(ids, crashes)
		world := oracle.NewWorld(truth, 200)
		omegas := make([]*oracle.HOmega, ids.N())
		bound := 0
		d := ohpDeployment("mixed", ids, sim.PartialSync{GST: 30, Delta: 5}, 13, truth, func(eng *sim.Engine) *ohp.Detector {
			det := ohp.New()
			node := sim.NewNode().Add("ohp", det)
			if bound%2 == 1 {
				omegas[bound] = oracle.NewHOmega(world, oracle.AdversaryRotate)
				node.Add("omega", omegas[bound])
			}
			eng.AddProcess(node)
			bound++
			return det
		})
		watch(d, "mixed oracle leader", ids.N(), func(p sim.PID) (fd.LeaderInfo, bool) {
			if omegas[p] == nil {
				return fd.LeaderInfo{}, false
			}
			return omegas[p].Leader()
		}, fd.LeaderEqual, nil)
		d.eng.CrashSchedule(crashes)
		if err := d.run(2000); err != nil {
			t.Fatal(err)
		}
		requireSignals(t, "mixed", d.eng, ids.N(), func(p sim.PID) bool { return p%2 == 0 })
	})
	// E3's configurations: the alive list and its sorted prefix.
	for _, cfg := range []struct {
		n       int
		crashes map[sim.PID]sim.Time
	}{
		{4, nil},
		{6, map[sim.PID]sim.Time{1: 100}},
		{8, map[sim.PID]sim.Time{1: 100, 3: 200, 5: 300}},
		{12, map[sim.PID]sim.Time{0: 50, 2: 100, 4: 150, 6: 200, 8: 250}},
	} {
		t.Run(fmt.Sprintf("alive E3 n=%d", cfg.n), func(t *testing.T) {
			ids := ident.Unique(cfg.n)
			d := &deployment{eng: sim.New(sim.Config{IDs: ids, Net: sim.Async{MaxDelay: 8}, Seed: int64(cfg.n)})}
			dets := make([]*alive.Detector, cfg.n)
			for i := range dets {
				dets[i] = alive.New()
				d.eng.AddProcess(dets[i])
			}
			d.eng.CrashSchedule(cfg.crashes)
			truth := fd.NewGroundTruth(ids, cfg.crashes)
			k := len(truth.Correct())
			watch(d, "alive", cfg.n, func(p sim.PID) ([]ident.ID, bool) {
				return dets[p].Alive(), true
			}, slices.Equal[[]ident.ID], func(v fd.FinalView[[]ident.ID]) (fd.Result, error) {
				return fd.CheckAliveList(truth, v)
			})
			watch(d, "alive prefix", cfg.n, func(p sim.PID) ([]ident.ID, bool) {
				a := dets[p].Alive()
				if len(a) < k {
					return nil, false
				}
				top := a[:k]
				slices.Sort(top)
				return top, true
			}, slices.Equal[[]ident.ID], nil)
			if err := d.run(1200); err != nil {
				t.Fatal(err)
			}
			requireSignals(t, "alive", d.eng, cfg.n, always)
		})
	}
}

// mute is the planted canary: Figure 6 behind an environment that drops
// Changed, while the detector still says it signals — an output replaced
// without a signal.
type mute struct{ *ohp.Detector }

type muteEnv struct{ sim.Environment }

func (muteEnv) Changed() {}

func (m mute) Init(env sim.Environment) { m.Detector.Init(muteEnv{env}) }

// TestSignalCanary: a detector that declares it signals but replaces its
// output without calling Changed must make the contract comparison fail.
func TestSignalCanary(t *testing.T) {
	ids := ident.Balanced(6, 3)
	crashes := map[sim.PID]sim.Time{1: 30}
	d := ohpDeployment("canary", ids, sim.PartialSync{GST: 50, Delta: 5}, 3, fd.NewGroundTruth(ids, crashes), func(eng *sim.Engine) *ohp.Detector {
		det := ohp.New()
		eng.AddProcess(mute{det})
		return det
	})
	d.eng.CrashSchedule(crashes)
	err := d.run(3000)
	if err == nil {
		t.Fatal("a detector that never signals matched the reference: the contract comparison has no teeth")
	}
	t.Logf("canary caught: %v", err)
}

// TestSignalledProbeGets counts the probe's get calls on a small Figure 6
// run: one per process at time 0 and one per event in which a process
// signalled, where the reference reads after every event.
func TestSignalledProbeGets(t *testing.T) {
	ids := ident.Balanced(6, 3)
	eng := sim.New(sim.Config{IDs: ids, Net: sim.PartialSync{GST: 50, Delta: 5}, Seed: 3})
	dets := make([]*ohp.Detector, ids.N())
	for i := range dets {
		dets[i] = ohp.New()
		eng.AddProcess(dets[i])
	}
	eng.CrashSchedule(map[sim.PID]sim.Time{1: 300})
	var gets, refGets, signalled int
	fd.NewStreamProbe(eng, ids.N(), func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		gets++
		return dets[p].Trusted(), true
	}, fd.MultisetEqual)
	refProbe(eng, ids.N(), func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		refGets++
		return dets[p].Trusted(), true
	}, fd.MultisetEqual)
	eng.AfterSignal(func(_ sim.Time, p sim.PID) {
		if p >= 0 {
			signalled++
		}
	})
	eng.Run(20_000)
	if want := ids.N() + signalled; gets != want {
		t.Fatalf("probe read %d outputs, want %d (n = %d plus %d signalled events)", gets, want, ids.N(), signalled)
	}
	if signalled == 0 || refGets < 100*gets {
		t.Fatalf("probe read %d outputs over %d signalled events, the reference %d: no saving shown", gets, signalled, refGets)
	}
	t.Logf("%d events: the probe read %d outputs (%d signalled events), the reference %d", eng.Processed(), gets, signalled, refGets)
}
