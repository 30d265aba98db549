package fd_test

import (
	"fmt"
	"testing"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// gossiper is a toy detector for probe-equivalence tests: it broadcasts
// its id periodically and outputs the multiset of distinct senders heard
// so far. Its output changes often and at irregular instants, which is
// exactly what the sampling equivalence claim needs exercised.
type gossiper struct {
	env   sim.Environment
	heard *multiset.Multiset[ident.ID]
}

type gossip struct{ From ident.ID }

func (gossip) MsgTag() string { return "GOSSIP" }

func (g *gossiper) Init(env sim.Environment) {
	g.env = env
	g.heard = multiset.New[ident.ID]()
	env.Broadcast(gossip{From: env.ID()})
	env.SetTimer(4, 0)
}

func (g *gossiper) OnMessage(payload any) {
	if m, ok := payload.(gossip); ok && g.heard.Count(m.From) == 0 {
		g.heard.Add(m.From)
	}
}

func (g *gossiper) OnTimer(tag int) {
	g.env.Broadcast(gossip{From: g.env.ID()})
	g.env.SetTimer(4, tag)
}

func (g *gossiper) OnRecover() { g.env.SetTimer(4, 0) }

// refHistories is what the reference sampler below fills: the Probe type
// as it was before Probe became a collector on StreamProbe.
type refHistories[T any] struct {
	histories [][]fd.Sample[T]
}

// refProbe is NewProbe's body from before the samplers were merged, kept
// verbatim as the independent reference: its own AfterEvent loop, its own
// "equal to the last stored sample?" test, its own append.
func refProbe[T any](eng *sim.Engine, n int, get func(p sim.PID) (T, bool), eq func(a, b T) bool) *refHistories[T] {
	pr := &refHistories[T]{histories: make([][]fd.Sample[T], n)}
	sample := func(now sim.Time, p int) {
		v, ok := get(sim.PID(p))
		if !ok {
			return
		}
		h := pr.histories[p]
		if len(h) > 0 && eq(h[len(h)-1].Value, v) {
			return
		}
		pr.histories[p] = append(h, fd.Sample[T]{Time: now, Value: v})
	}
	lastNow := sim.Time(-1)
	eng.AfterEvent(func(now sim.Time, p sim.PID) {
		if p >= 0 && now == lastNow {
			if int(p) < n {
				sample(now, int(p))
			}
			return
		}
		lastNow = now
		for q := 0; q < n; q++ {
			sample(now, q)
		}
	})
	return pr
}

func (pr *refHistories[T]) History(p sim.PID) []fd.Sample[T] { return pr.histories[p] }

func (pr *refHistories[T]) Last(p sim.PID) (T, bool) {
	h := pr.histories[p]
	if len(h) == 0 {
		var zero T
		return zero, false
	}
	return h[len(h)-1].Value, true
}

func (pr *refHistories[T]) LastChange(p sim.PID) sim.Time {
	h := pr.histories[p]
	if len(h) == 0 {
		return 0
	}
	return h[len(h)-1].Time
}

func (pr *refHistories[T]) N() int { return len(pr.histories) }

// sameAsReference requires a probe's histories and final view to be the
// reference sampler's, sample for sample.
func sameAsReference[T any](t *testing.T, name string, ref *refHistories[T], got *fd.Probe[T], eq func(a, b T) bool) {
	t.Helper()
	if err := diffReference(name, ref, got, eq); err != nil {
		t.Fatal(err)
	}
}

// diffReference reports the first difference between a probe's histories
// and final view and the reference sampler's, nil when there is none.
func diffReference[T any](name string, ref *refHistories[T], got *fd.Probe[T], eq func(a, b T) bool) error {
	if got.N() != ref.N() {
		return fmt.Errorf("%s: probes %d processes, reference %d", name, got.N(), ref.N())
	}
	for p := sim.PID(0); int(p) < ref.N(); p++ {
		want, h := ref.History(p), got.History(p)
		if len(h) != len(want) {
			return fmt.Errorf("%s p%d: stored %d samples, reference %d", name, p, len(h), len(want))
		}
		for i := range want {
			if h[i].Time != want[i].Time || !eq(h[i].Value, want[i].Value) {
				return fmt.Errorf("%s p%d sample %d: %v@%d, reference %v@%d",
					name, p, i, h[i].Value, h[i].Time, want[i].Value, want[i].Time)
			}
		}
		rv, rok := ref.Last(p)
		gv, gok := got.Last(p)
		if rok != gok || (rok && !eq(rv, gv)) {
			return fmt.Errorf("%s p%d: Last diverges: (%v,%v), reference (%v,%v)", name, p, gv, gok, rv, rok)
		}
		if got.LastChange(p) != ref.LastChange(p) {
			return fmt.Errorf("%s p%d: LastChange %d, reference %d", name, p, got.LastChange(p), ref.LastChange(p))
		}
	}
	return nil
}

// TestStreamProbeSkipsCrashed: the probe reads no output from a process
// while the engine reports it down, whatever get would return, and reads
// it again once the process recovers.
func TestStreamProbeSkipsCrashed(t *testing.T) {
	const n = 3
	eng := sim.New(sim.Config{IDs: ident.Unique(n), Net: sim.Async{MaxDelay: 6}, Seed: 9})
	for i := 0; i < n; i++ {
		eng.AddProcess(&gossiper{})
	}
	eng.CrashAt(1, 20)
	eng.RecoverAt(1, 40)
	sp := fd.NewStreamProbe(eng, n, func(sim.PID) (sim.Time, bool) { return eng.Now(), true },
		func(a, b sim.Time) bool { return a == b })
	var times []sim.Time
	sp.Observe(func(p sim.PID, s fd.Sample[sim.Time]) {
		if p == 1 {
			times = append(times, s.Time)
		}
	})
	eng.Run(60)
	after := false
	for _, at := range times {
		if at >= 20 && at < 40 {
			t.Fatalf("sampled process 1 at %d, inside its outage [20, 40)", at)
		}
		after = after || at >= 40
	}
	if len(times) == 0 || times[0] >= 20 || !after {
		t.Fatalf("process 1 sampled at %v, want samples before and after its outage", times)
	}
}

// TestStreamProbeMatchesProbeLive pins the sampler on a live engine
// against the independent reference: a Probe and refProbe attached to
// the same run store identical sample streams and final views, and the
// final-state checkers produce identical verdicts through the reference,
// the Probe and a bare StreamProbe.
func TestStreamProbeMatchesProbeLive(t *testing.T) {
	const n = 9
	ids := ident.Balanced(n, 3)
	eng := sim.New(sim.Config{IDs: ids, Net: sim.Async{MaxDelay: 6}, Seed: 5})
	dets := make([]*gossiper, n)
	for i := range dets {
		dets[i] = &gossiper{}
		eng.AddProcess(dets[i])
	}
	eng.CrashAt(2, 15)
	eng.RecoverAt(2, 33)
	eng.CrashAt(5, 21)

	get := func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		if eng.Crashed(p) || dets[p].heard == nil {
			return nil, false
		}
		return dets[p].heard.Clone(), true
	}
	eq := func(a, b *multiset.Multiset[ident.ID]) bool { return a.Equal(b) }

	ref := refProbe(eng, n, get, eq)
	probe := fd.NewProbe(eng, n, get, eq)
	sp := fd.NewStreamProbe(eng, n, get, eq)

	eng.Run(60)

	samples := 0
	for p := 0; p < n; p++ {
		samples += len(ref.History(sim.PID(p)))
	}
	if samples < 3*n {
		t.Fatalf("reference stored %d samples: the run is too quiet to compare samplers on", samples)
	}
	sameAsReference(t, "Probe", ref, probe, eq)

	// Identical verdicts through either pipeline, for passing or failing
	// checks alike. (The toy detector need not satisfy ◇HP̄; what must hold
	// is agreement.)
	g := fd.NewGroundTruth(ids, map[sim.PID]sim.Time{5: 21})
	rr, errR := fd.CheckDiamondHPbar(g, ref)
	rp, errP := fd.CheckDiamondHPbar(g, probe)
	rs, errS := fd.CheckDiamondHPbar(g, sp)
	if fmt.Sprint(rr, errR) != fmt.Sprint(rp, errP) || fmt.Sprint(rr, errR) != fmt.Sprint(rs, errS) {
		t.Errorf("◇HP̄ verdicts diverge:\nreference: %v %v\nprobe:     %v %v\nstream:    %v %v", rr, errR, rp, errP, rs, errS)
	}
}
