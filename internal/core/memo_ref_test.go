package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/reduce"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stepRef is step as it stood before the memo: it runs the guards to a
// fixpoint on every call, whatever the last call found. It is kept as the
// reference the memo is held to, and reports whether a guard fired.
func (c *skeleton) stepRef() (fired bool) {
	if c.env == nil {
		return false
	}
	for !c.outcome.Decided {
		if c.maxRounds > 0 && c.round > c.maxRounds {
			return fired
		}
		if !c.fire() {
			return fired
		}
		fired = true
	}
	return fired
}

// tap is the Environment a reference step runs against: it answers the
// step's queries from the real one and counts, instead of performing,
// whatever the step would emit.
type tap struct {
	sim.Environment
	emitted int
}

func (e *tap) Broadcast(any)                   { e.emitted++ }
func (e *tap) SetTimer(sim.Time, int)          { e.emitted++ }
func (e *tap) Note(trace.Kind, string, string) { e.emitted++ }

// guardState is the state a step may write.
type guardState struct {
	round      int
	phase      phase
	est1, est2 Value
	sr         int
	rejoining  bool
	outcome    Outcome
}

func (c *skeleton) guardState() guardState {
	return guardState{c.round, c.phase, c.est1, c.est2, c.rule.subRound(), c.rejoining, c.outcome}
}

// refFinds runs stepRef on the instance and describes what it did, "" if
// nothing: at a fixpoint it fires no guard, emits nothing and writes no
// state.
func (c *skeleton) refFinds() string {
	env := c.env
	if env == nil {
		return ""
	}
	before := c.guardState()
	out := &tap{Environment: env}
	c.env = out
	fired := c.stepRef()
	c.env = env
	switch after := c.guardState(); {
	case fired:
		return fmt.Sprintf("fires a guard (%+v -> %+v)", before, after)
	case out.emitted > 0:
		return fmt.Sprintf("emits %d times", out.emitted)
	case after != before:
		return fmt.Sprintf("writes %+v -> %+v", before, after)
	}
	return ""
}

func skeletonOf(p sim.Process) *skeleton {
	switch c := p.(type) {
	case *Fig8:
		return &c.skeleton
	case *Fig9:
		return &c.skeleton
	}
	panic(fmt.Sprintf("no consensus instance: %T", p))
}

// deploy is how the run builders (variantGrid, corpusRuns, seededRun)
// create a run's recorder and bind its nodes to the engine. The zero value
// gives a stats-only recorder and binds each node as it is.
type deploy struct {
	rec  func() *trace.Recorder
	bind func(eng *sim.Engine, node sim.Process)
}

func (d deploy) recorder() *trace.Recorder {
	if d.rec == nil {
		return &trace.Recorder{}
	}
	return d.rec()
}

func (d deploy) add(eng *sim.Engine, node sim.Process) {
	if d.bind == nil {
		eng.AddProcess(node)
		return
	}
	d.bind(eng, node)
}

// memoRun is one deployment of the memo differential, built and not yet
// run. done, when set, stops the run early (the hunt's until-predicate).
type memoRun struct {
	name    string
	eng     *sim.Engine
	insts   []sim.Process
	horizon sim.Time
	done    func() bool
}

// run runs the deployment with every live instance held to stepRef after
// every event, and returns the number of checks made. Every handler of a
// process's node ends with its consensus instance stepped (its own event,
// or a poll after a co-located module's), so after any event stepRef on
// that instance must find nothing to do; after the engine's time-0
// notification, every instance just ran Init. A crashed process is
// skipped: its detectors' outputs move on while it takes no steps.
func (r memoRun) run(t *testing.T) int {
	t.Helper()
	sks := make([]*skeleton, len(r.insts))
	for i, inst := range r.insts {
		sks[i] = skeletonOf(inst)
	}
	checks, failed := 0, false
	check := func(now sim.Time, at, p sim.PID) {
		if failed || r.eng.Crashed(p) {
			return
		}
		checks++
		if what := sks[p].refFinds(); what != "" {
			t.Errorf("%s: after the event of p%d at t=%d, stepRef on p%d (round %d, phase %d) %s", r.name, at, now, p, sks[p].round, sks[p].phase, what)
			failed = true
		}
	}
	r.eng.AfterEvent(func(now sim.Time, p sim.PID) {
		if p >= 0 {
			check(now, p, p)
			return
		}
		for q := range sks {
			check(now, p, sim.PID(q))
		}
	})
	if r.done == nil {
		r.eng.Run(r.horizon)
	} else {
		r.eng.RunUntil(r.horizon, r.done)
	}
	return checks
}

// corpusScenario is the part of a hunt corpus entry's scenario a consensus
// run reads (internal/hunt cannot be imported here: it imports this
// package through the root package).
type corpusScenario struct {
	Kind       string                `json:"kind"`
	N          int                   `json:"n"`
	L          int                   `json:"l"`
	T          int                   `json:"t"`
	Seed       int64                 `json:"seed"`
	Horizon    sim.Time              `json:"horizon"`
	Churn      sim.ChurnSpec         `json:"churn"`
	Crashes    []struct{ P, At int } `json:"crashes"`
	Net        string                `json:"net"`
	Partitions []sim.PartitionWindow `json:"partitions"`
	Adversary  string                `json:"adversary"`
	Stabilize  sim.Time              `json:"stabilize"`
	MaxEvents  int                   `json:"maxEvents"`
}

// corpusRuns builds the consensus entries of the hunt corpus as a hunt
// run deploys them: balanced identities, the net with its partition
// windows, the churn schedule followed by the crashes in PID order, oracle
// detectors, default proposals, the 1,000,000 horizon by default, and a
// stop once every eventually-up process has decided.
func corpusRuns(t *testing.T, d deploy) []memoRun {
	t.Helper()
	files, err := filepath.Glob("../hunt/testdata/corpus/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("hunt corpus: %v (%d files)", err, len(files))
	}
	var runs []memoRun
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var entry struct {
			Scenario corpusScenario `json:"scenario"`
		}
		if err := json.Unmarshal(data, &entry); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		s := entry.Scenario
		if s.Kind != "fig8" && s.Kind != "fig9" && s.Kind != "fig9-anon" {
			continue
		}
		var net sim.Model
		if len(s.Partitions) > 0 {
			net = sim.Async{MaxDelay: 8}
		}
		if s.Net != "" {
			if net, err = cliutil.ParseNet(s.Net); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
		}
		if len(s.Partitions) > 0 {
			net = sim.Partition{Base: net, Windows: s.Partitions}
		}
		ids := ident.Balanced(s.N, s.L)
		schedule := s.Churn.Events(s.N)
		slices.SortFunc(s.Crashes, func(a, b struct{ P, At int }) int { return a.P - b.P })
		for _, c := range s.Crashes {
			schedule = append(schedule, sim.ChurnEvent{P: sim.PID(c.P), At: sim.Time(c.At)})
		}
		truth := fd.NewGroundTruthFromChurn(ids, schedule)
		if s.Churn.Fraction > 0 && s.Stabilize == 0 {
			s.Stabilize = truth.LastChange() + 50
		}
		if s.Horizon == 0 {
			s.Horizon = 1_000_000
		}
		adv := map[string]oracle.Adversary{"": oracle.AdversaryRotate, "rotate": oracle.AdversaryRotate, "none": oracle.AdversaryNone, "split": oracle.AdversarySplit}[s.Adversary]
		eng := sim.New(sim.Config{IDs: ids, Net: net, Seed: s.Seed, KnownN: s.Kind == "fig8", MaxEvents: s.MaxEvents, Recorder: d.recorder()})
		world := oracle.NewWorld(truth, s.Stabilize)
		insts := make([]sim.Process, s.N)
		for i := range insts {
			node := sim.NewNode()
			v := Value(fmt.Sprintf("v%d", i))
			switch s.Kind {
			case "fig8":
				d := oracle.NewHOmega(world, adv)
				node.Add("homega", d)
				insts[i] = NewFig8(d, s.T, v)
			case "fig9":
				hs, ho := oracle.NewHSigma(world), oracle.NewHOmega(world, adv)
				node.Add("hsigma", hs).Add("homega", ho)
				insts[i] = NewFig9(ho, hs, v)
			default:
				hs, ao := oracle.NewHSigma(world), oracle.NewAOmega(world, adv)
				node.Add("hsigma", hs).Add("aomega", ao)
				insts[i] = NewFig9Anonymous(ao, hs, v)
			}
			d.add(eng, node.Add("consensus", insts[i]))
		}
		eng.ApplyChurn(schedule)
		up := truth.EventuallyUp()
		runs = append(runs, memoRun{name: "corpus/" + filepath.Base(file), eng: eng, insts: insts, horizon: s.Horizon, done: func() bool {
			for _, p := range up {
				if !skeletonOf(insts[p]).outcome.Decided {
					return false
				}
			}
			return true
		}})
	}
	return runs
}

// fixedRuns builds the variant grid, run to its horizon, and the hunt
// corpus's consensus entries.
func fixedRuns(t *testing.T, d deploy) []memoRun {
	t.Helper()
	var runs []memoRun
	for _, r := range variantGrid(d) {
		insts := make([]sim.Process, len(r.insts))
		for i, inst := range r.insts {
			insts[i] = inst
		}
		runs = append(runs, memoRun{name: r.name, eng: r.eng, insts: insts, horizon: variantHorizon})
	}
	return append(runs, corpusRuns(t, d)...)
}

// seededDeployments is how many seededRun deployments a test runs: 2,000,
// or 200 under -short.
func seededDeployments() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// seededRun builds one random deployment: Fig. 8 (all three constructors;
// HΩ from an oracle, from Observation 1 over a ◇HP̄ oracle, or from the
// message-passing ◇HP̄ detector) or Fig. 9 (homonymous or anonymous; HΣ
// from an oracle or from one of the four reductions that produce it, over
// the identities each is meant for), with crashes or churn, over a
// reliable, lossy or partitioned network.
func seededRun(seed int64, d deploy) memoRun {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(4)
	algo := []string{"fig8", "fig8-nocoord", "fig8-alpha", "fig9", "fig9-anon"}[rng.Intn(5)]
	hsigma := []string{"oracle", "fig1", "fig2", "thm3", "lemma3"}[rng.Intn(5)]
	omega := []string{"oracle", "obs1", "ohp"}[rng.Intn(3)]
	fig9 := algo == "fig9" || algo == "fig9-anon"
	if fig9 && omega == "ohp" {
		omega = "oracle"
	}
	var ids ident.Assignment
	switch {
	case fig9 && (hsigma == "fig1" || hsigma == "fig2"):
		ids = ident.Unique(n)
	case fig9 && (hsigma == "thm3" || hsigma == "lemma3"):
		ids = ident.AnonymousN(n)
	default:
		ids = ident.Balanced(n, 1+rng.Intn(n))
	}
	tolerated := (n - 1) / 2

	var schedule []sim.ChurnEvent
	faults := "failure-free"
	switch rng.Intn(3) {
	case 1:
		faults = "crashes"
		for _, p := range rng.Perm(n)[:1+rng.Intn(max(tolerated, 1))] {
			schedule = append(schedule, sim.ChurnEvent{P: sim.PID(p), At: sim.Time(rng.Intn(200))})
		}
	case 2:
		faults = "churn"
		schedule = sim.ChurnSpec{
			Fraction: 0.2 + 0.4*rng.Float64(), Cycles: 1 + rng.Intn(2), Start: sim.Time(1 + rng.Intn(60)),
			Down: sim.Time(5 + rng.Intn(80)), Up: sim.Time(5 + rng.Intn(60)), Stagger: sim.Time(rng.Intn(10)),
		}.Events(n)
	}
	base := sim.Async{MaxDelay: sim.Time(1 + rng.Intn(12))}
	var net sim.Model = base
	switch rng.Intn(3) {
	case 1:
		net = sim.Lossy{Base: base, P: 0.05 + 0.3*rng.Float64()}
	case 2:
		from := sim.Time(rng.Intn(100))
		net = sim.Partition{Base: base, Windows: []sim.PartitionWindow{{From: from, To: from + sim.Time(10+rng.Intn(80)), Cut: sim.PID(1 + rng.Intn(n-1))}}}
	}
	adv := oracle.Adversary(rng.Intn(3))
	truth := fd.NewGroundTruthFromChurn(ids, schedule)
	world := oracle.NewWorld(truth, sim.Time(rng.Intn(150)))

	eng := sim.New(sim.Config{IDs: ids, Net: net, Seed: seed, KnownN: algo == "fig8" || algo == "fig8-nocoord", Recorder: d.recorder()})
	insts := make([]sim.Process, n)
	for i := range insts {
		node := sim.NewNode()
		v := Value(fmt.Sprintf("v%d", rng.Intn(3)))
		var ho fd.HOmega
		switch omega {
		case "oracle":
			d := oracle.NewHOmega(world, adv)
			node.Add("homega", d)
			ho = d
		case "obs1":
			ho = reduce.StackObs1(world, node)
		case "ohp":
			d := ohp.New()
			node.Add("ohp", d)
			ho = d
		}
		var hs fd.HSigma
		if fig9 {
			switch hsigma {
			case "oracle":
				d := oracle.NewHSigma(world)
				node.Add("hsigma", d)
				hs = d
			case "fig1":
				hs = reduce.StackFig1(world, node)
			case "fig2":
				hs = reduce.StackFig2(world, node)
			case "thm3":
				hs = reduce.StackThm3(world, node)
			case "lemma3":
				hs = reduce.StackLemma3(world, node)
			}
		}
		switch algo {
		case "fig8":
			insts[i] = NewFig8(ho, tolerated, v)
		case "fig8-nocoord":
			c := NewFig8NoCoordination(ho, tolerated, v)
			c.SetMaxRounds(10)
			insts[i] = c
		case "fig8-alpha":
			insts[i] = NewFig8Alpha(ho, n-tolerated, v)
		case "fig9":
			insts[i] = NewFig9(ho, hs, v)
		case "fig9-anon":
			ao := oracle.NewAOmega(world, adv)
			node.Add("aomega", ao)
			insts[i] = NewFig9Anonymous(ao, hs, v)
		}
		d.add(eng, node.Add("consensus", insts[i]))
	}
	eng.ApplyChurn(schedule)
	label := omega
	if fig9 {
		label = hsigma
	}
	return memoRun{name: fmt.Sprintf("seed=%d %s/%s n=%d %s %s", seed, algo, label, n, faults, net), eng: eng, insts: insts, horizon: 400}
}

// TestStepMemoMatchesRef holds the step memo to stepRef: after every event
// of the variant-trace grid, of the hunt corpus's consensus entries (its
// loss-liveness entries run to the 1,000,000 horizon, at a fixpoint for
// almost all of it) and of 2,000 seeded deployments, stepRef on the
// instance the event reached must find nothing to fire. A memo that
// returned early where a guard would fire leaves it something.
//
// Verified to fail with OnMessage not clearing quiet (a buffered quorum
// message no longer re-runs the guards) and with Fig9.view leaving
// h_labels out (over Figure 2, h_labels grows on IDENT arrivals while
// h_quora stays put, and the sub-round advance no longer runs).
func TestStepMemoMatchesRef(t *testing.T) {
	memo := fixedRuns(t, deploy{})
	checks := 0
	for _, r := range memo {
		checks += r.run(t)
	}
	deployments := seededDeployments()
	for seed := int64(1); seed <= int64(deployments); seed++ {
		checks += seededRun(seed, deploy{}).run(t)
	}
	t.Logf("%d runs, %d checks", len(memo)+deployments, checks)
}
