package hds

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scanDecided is a consensus run's until-predicate as it stood before
// untilDecided: after every event it asks every eventually-up instance
// whether it has decided. It is kept as the reference untilDecided is held
// to.
func scanDecided(up []sim.PID, insts []decider) func() bool {
	return func() bool {
		for _, p := range up {
			if !insts[p].Decided().Decided {
				return false
			}
		}
		return true
	}
}

// refOutcome is what a reference run leaves behind: the result, the number
// of events processed, and the first event after which untilDecided and
// scanDecided answered differently (-1: they never did).
type refOutcome struct {
	res       Result
	err       error
	processed int
	diverged  int
}

// refRun is consensusRun.run with scanDecided deciding when the run stops
// and untilDecided asked beside it after every event, on the same engine
// and recorder. The body is run's, verbatim but for the predicate.
func (r consensusRun) refRun() refOutcome {
	ids := r.IDs
	churn := r.Churn.Fraction > 0
	schedule, truth := r.faults.schedule, r.faults.truth
	if churn && r.Stabilize == 0 {
		r.Stabilize = truth.LastChange() + 50
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
	out := refOutcome{diverged: -1}
	scan := scanDecided(truth.EventuallyUp(), insts)
	cursor := untilDecided(truth.EventuallyUp(), insts, r.cfg.Recorder)
	eng.RunUntil(r.Horizon, func() bool {
		want := scan()
		if cursor() != want && out.diverged < 0 {
			out.diverged = eng.Processed()
		}
		return want
	})
	out.processed = eng.Processed()

	failed := Result{Stats: r.cfg.Recorder.Stats(), Stopped: eng.Stopped()}
	out.res = failed
	if out.err = guardErr(eng); out.err != nil {
		return out
	}
	if churn {
		if out.err = checkTruthConsistency(eng, truth); out.err != nil {
			return out
		}
		if out.err = mon.Err(); out.err != nil {
			return out
		}
	}
	outcomes := make([]core.Outcome, len(insts))
	for i, inst := range insts {
		outcomes[i] = inst.Decided()
		if err := inst.InvariantErr(); err != nil {
			out.err = fmt.Errorf("hds: internal invariant: %w", err)
			return out
		}
	}
	out.res, out.err = VerifyConsensus(truth, churn, r.Proposals, outcomes)
	out.res.Stats, out.res.Stopped, out.res.Recoveries = failed.Stats, failed.Stopped, eng.Recoveries()
	return out
}

// digestSink hashes a spilled trace's text and counts the events that are
// engine steps — a copy delivered or dropped at its recipient, a timer
// fired or dropped, a crash or a recovery — which in a consensus run's
// fault pattern (no process is crashed twice or recovered while up) is the
// number of events processed.
type digestSink struct {
	h     hash.Hash
	steps int
}

func (s *digestSink) Spill(batch []trace.Event) error {
	for _, e := range batch {
		switch e.Kind {
		case trace.KindDeliver, trace.KindTimer, trace.KindTimerDrop, trace.KindCrash, trace.KindRecover:
			s.steps++
		case trace.KindDrop:
			if e.Detail == "recipient crashed" {
				s.steps++
			}
		}
	}
	return trace.WriteText(s.h, batch)
}

// untilCase is one consensus experiment of the predicate differential.
type untilCase struct {
	name string
	e    Experiment
	seed int64
}

// untilGrid is the consensus side of the variant-trace grid
// (internal/core/testdata/variant_traces.txt): its five processes over four
// identifiers, its network and seeds, and its three fault shapes — none, a
// crash of a leader-group member, churn through the leader group — for
// every variant the runners build, plus a MaxEvents stop, a horizon stop
// and a run in which every process crashes (nothing is eventually up, so
// the run stops after its first event).
func untilGrid() []untilCase {
	ids := Assignment{"a", "a", "b", "c", "d"}
	faults := []struct {
		name    string
		crashes map[PID]Time
		churn   ChurnSpec
	}{
		{"failure-free", nil, ChurnSpec{}},
		{"crash", map[PID]Time{0: 20}, ChurnSpec{}},
		{"churn", nil, ChurnSpec{Fraction: 0.4, Cycles: 1, Start: 4, Down: 140, Stagger: 2}},
	}
	var cases []untilCase
	for _, f := range faults {
		for seed := int64(1); seed <= 2; seed++ {
			for _, algo := range []string{"fig8", "fig9", "fig9-anon"} {
				cases = append(cases, untilCase{name: fmt.Sprintf("grid/%s/%s/seed=%d", algo, f.name, seed), seed: seed, e: Experiment{
					Algo: algo, IDs: ids, T: 2, Crashes: f.crashes, Churn: f.churn, Net: Async{MaxDelay: 8},
				}})
			}
		}
	}
	return append(cases,
		untilCase{name: "max-events", seed: 1, e: Experiment{Algo: "fig9", IDs: ids, Net: Async{MaxDelay: 8}, MaxEvents: 40}},
		untilCase{name: "horizon", seed: 1, e: Experiment{Algo: "fig8", IDs: ids, T: 2, Net: Async{MaxDelay: 8}, Horizon: 9}},
		untilCase{name: "all-crashed", seed: 1, e: Experiment{Algo: "fig9", IDs: ident.Unique(3), Crashes: map[PID]Time{0: 5, 1: 5, 2: 5}}},
	)
}

// corpusScenario is the part of a hunt corpus entry's scenario a consensus
// runner reads (internal/hunt cannot be imported here: it imports this
// package). It is resolved the way hunt resolves it.
type corpusScenario struct {
	Kind       string                `json:"kind"`
	N          int                   `json:"n"`
	L          int                   `json:"l"`
	T          int                   `json:"t"`
	Seed       int64                 `json:"seed"`
	Horizon    Time                  `json:"horizon"`
	Churn      ChurnSpec             `json:"churn"`
	Crashes    []struct{ P, At int } `json:"crashes"`
	Net        string                `json:"net"`
	Partitions []sim.PartitionWindow `json:"partitions"`
	Adversary  string                `json:"adversary"`
	Stabilize  Time                  `json:"stabilize"`
	MaxEvents  int                   `json:"maxEvents"`
}

// corpusCases reads the consensus entries of the hunt corpus.
func corpusCases(t *testing.T) []untilCase {
	files, err := filepath.Glob("internal/hunt/testdata/corpus/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("hunt corpus: %v (%d files)", err, len(files))
	}
	var cases []untilCase
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
			net = Async{MaxDelay: 8}
		}
		if s.Net != "" {
			if net, err = cliutil.ParseNet(s.Net); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
		}
		if len(s.Partitions) > 0 {
			net = sim.Partition{Base: net, Windows: s.Partitions}
		}
		adv := map[string]oracle.Adversary{"": oracle.AdversaryRotate, "rotate": oracle.AdversaryRotate, "none": oracle.AdversaryNone, "split": oracle.AdversarySplit}[s.Adversary]
		var crashes map[PID]Time
		for _, c := range s.Crashes {
			if crashes == nil {
				crashes = map[PID]Time{}
			}
			crashes[PID(c.P)] = Time(c.At)
		}
		cases = append(cases, untilCase{name: "corpus/" + filepath.Base(file), seed: s.Seed, e: Experiment{
			Algo: s.Kind, IDs: BalancedIDs(s.N, s.L), T: s.T, Crashes: crashes, Churn: s.Churn, Net: net,
			Stabilize: s.Stabilize, Adversary: adv, Horizon: s.Horizon, MaxEvents: s.MaxEvents,
		}})
	}
	return cases
}

// TestUntilDecidedMatchesScan holds untilDecided to scanDecided over the
// variant-trace grid and the hunt corpus (its loss-liveness entry runs to
// the 1,000,000 horizon). In the reference run the scan decides when the
// run stops and the cursor is asked beside it after every event: the two
// must never disagree. The production run (Experiment.Run) must then stop
// on the same event, for the same reason, with the same result, error and
// trace bytes; and a production run on the default stats-only recorder
// must report the same result.
//
// Verified to fail with untilDecided's decision-count gate started at 0
// instead of -1: with nothing eventually up, the first call no longer
// scans, and the all-crashed run no longer stops after its first event.
func TestUntilDecidedMatchesScan(t *testing.T) {
	cases := append(untilGrid(), corpusCases(t)...)
	var stops [sim.StopMaxEvents + 1]int
	for _, c := range cases {
		refSink := &digestSink{h: sha256.New()}
		refRec := trace.NewSpillRecorder(refSink, 0)
		e := c.e.WithDefaults()
		faults, err := e.validate(true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := e.bind(faults, c.seed, refRec).refRun()
		if err := refRec.Flush(); err != nil {
			t.Fatal(err)
		}
		if want.diverged >= 0 {
			t.Fatalf("%s: untilDecided and the scan disagree after event %d", c.name, want.diverged)
		}
		if refSink.steps != want.processed {
			t.Fatalf("%s: trace shows %d engine steps for %d events processed", c.name, refSink.steps, want.processed)
		}

		sink := &digestSink{h: sha256.New()}
		rec := trace.NewSpillRecorder(sink, 0)
		res, err := c.e.Run(c.seed, rec)
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		if sink.steps != want.processed {
			t.Errorf("%s: stopped after event %d, reference after %d", c.name, sink.steps, want.processed)
		}
		if got, ref := sink.h.Sum(nil), refSink.h.Sum(nil); string(got) != string(ref) {
			t.Errorf("%s: trace sha256 %x, reference %x", c.name, got[:6], ref[:6])
		}
		wantRes := fmt.Sprintf("%+v err=%v", want.res, want.err)
		if got := fmt.Sprintf("%+v err=%v", res, err); got != wantRes {
			t.Errorf("%s: result\n got %s\nwant %s", c.name, got, wantRes)
		}
		res, err = c.e.Run(c.seed, nil)
		if got := fmt.Sprintf("%+v err=%v", res, err); got != wantRes {
			t.Errorf("%s: stats-only result\n got %s\nwant %s", c.name, got, wantRes)
		}
		stops[want.res.Stopped]++
	}
	t.Logf("%d runs: %d stopped by the predicate, %d at the horizon, %d by MaxEvents", len(cases),
		stops[sim.StopPredicate], stops[sim.StopHorizon], stops[sim.StopMaxEvents])
	if stops[sim.StopPredicate] == 0 || stops[sim.StopHorizon] == 0 || stops[sim.StopMaxEvents] == 0 {
		t.Error("the cases do not reach every stop the predicate can be ruled against")
	}
}
