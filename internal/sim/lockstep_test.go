package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// The synchronous model HSS runs as Lockstep processes on the event
// engine. These tests pin its step semantics, and
// TestLockstepMatchesReference holds it to the lock-step loop it replaced.

// identSender is the shape of the paper's synchronous algorithms: broadcast
// your identity each step, collect what arrives. It records each step's
// identifiers sorted — the multiset the step delivered.
type identSender struct {
	perStep [][]ident.ID
}

type identMsg struct{ ID ident.ID }

func (identMsg) MsgTag() string { return "IDENT" }

func (p *identSender) StepSend(env Environment) any { return identMsg{ID: env.ID()} }

func (p *identSender) StepRecv(received []any) {
	ids := make([]ident.ID, 0, len(received))
	for _, m := range received {
		ids = append(ids, m.(identMsg).ID)
	}
	slices.Sort(ids)
	p.perStep = append(p.perStep, ids)
}

// stepCrash is a crash during a step whose broadcast reaches each peer
// with probability prob.
type stepCrash struct {
	pid  PID
	step int
	prob float64
}

func newLockstep(ids ident.Assignment, seed int64, steps int, rec *trace.Recorder) (*Engine, []*identSender) {
	eng := New(LockstepConfig(Config{IDs: ids, Seed: seed, Recorder: rec}, steps))
	procs := make([]*identSender, ids.N())
	for i := range procs {
		procs[i] = &identSender{}
		eng.AddProcess(NewLockstep(procs[i]))
	}
	return eng, procs
}

// runLockstep runs steps lock-step steps with the given crashes and
// returns what each process received per step.
func runLockstep(t *testing.T, ids ident.Assignment, seed int64, steps int, crashes []stepCrash) (*Engine, []*identSender) {
	t.Helper()
	eng, procs := newLockstep(ids, seed, steps, nil)
	for _, c := range crashes {
		eng.CrashDuringBroadcast(c.pid, StepStart(c.step), c.prob)
	}
	eng.Run(StepEnd(steps))
	if eng.Stopped() != StopHorizon {
		t.Fatalf("run stopped by %v, want the horizon at the end of step %d", eng.Stopped(), steps)
	}
	return eng, procs
}

func TestStepTimes(t *testing.T) {
	if StepOf(0) != 0 {
		t.Errorf("StepOf(0) = %d, want 0: time 0 precedes step 1", StepOf(0))
	}
	for k := 1; k <= 5; k++ {
		if StepOf(StepStart(k)) != k || StepOf(StepEnd(k)) != k {
			t.Errorf("step %d spans [%d, %d], which StepOf maps to %d and %d", k, StepStart(k), StepEnd(k), StepOf(StepStart(k)), StepOf(StepEnd(k)))
		}
		if StepStart(k+1) != StepEnd(k)+1 {
			t.Errorf("step %d ends at %d but step %d starts at %d", k, StepEnd(k), k+1, StepStart(k+1))
		}
	}
}

func TestSyncStepDeliversAll(t *testing.T) {
	_, procs := runLockstep(t, ident.Balanced(4, 2), 1, 3, nil)
	for i, p := range procs {
		if len(p.perStep) != 3 {
			t.Fatalf("process %d saw %d steps, want 3", i, len(p.perStep))
		}
		for s, ids := range p.perStep {
			if len(ids) != 4 {
				t.Errorf("process %d step %d received %d idents, want 4", i, s+1, len(ids))
			}
		}
	}
}

func TestSyncCrashAtStep(t *testing.T) {
	// deliverProb 0: nobody gets process 2's step-2 broadcast.
	eng, procs := runLockstep(t, ident.Unique(3), 2, 4, []stepCrash{{pid: 2, step: 2, prob: 0}})
	if !eng.Crashed(2) {
		t.Fatal("process 2 should be crashed after step 2")
	}
	// Step 1: everyone got 3. Steps 2..4: survivors get 2.
	for i := 0; i < 2; i++ {
		got := procs[i].perStep
		if len(got[0]) != 3 {
			t.Errorf("process %d step 1: %d idents, want 3", i, len(got[0]))
		}
		for s := 1; s < 4; s++ {
			if len(got[s]) != 2 {
				t.Errorf("process %d step %d: %d idents, want 2", i, s+1, len(got[s]))
			}
		}
	}
	// The crashed process stops observing steps after its crash step.
	if len(procs[2].perStep) != 1 {
		t.Errorf("crashed process observed %d steps, want 1 (it receives nothing in its crash step)", len(procs[2].perStep))
	}
}

func TestSyncCrashPartialBroadcast(t *testing.T) {
	// deliverProb 0.5 over many receivers: some but not all copies land.
	n := 30
	eng, procs := runLockstep(t, ident.Unique(n), 7, 1, []stepCrash{{pid: 0, step: 1, prob: 0.5}})
	withCopy, withoutCopy := 0, 0
	crashedID := eng.ids[0]
	for i := 1; i < n; i++ {
		if slices.Contains(procs[i].perStep[0], crashedID) {
			withCopy++
		} else {
			withoutCopy++
		}
	}
	if withCopy == 0 || withoutCopy == 0 {
		t.Errorf("partial broadcast not partial: %d got copy, %d did not", withCopy, withoutCopy)
	}
}

func TestSyncCorrectSet(t *testing.T) {
	eng, _ := newLockstep(ident.Unique(5), 3, 9, nil)
	eng.CrashDuringBroadcast(1, StepStart(3), 1)
	eng.CrashDuringBroadcast(4, StepStart(9), 1)
	if got, want := eng.CorrectSet(), []PID{0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("CorrectSet = %v, want %v", got, want)
	}
}

func TestSyncDeterminism(t *testing.T) {
	run := func() [][]ident.ID {
		_, procs := runLockstep(t, ident.Balanced(6, 3), 99, 5, []stepCrash{{pid: 1, step: 2, prob: 0.5}})
		var out [][]ident.ID
		for _, p := range procs {
			out = append(out, p.perStep...)
		}
		return out
	}
	a, b := run(), run()
	if !slices.EqualFunc(a, b, slices.Equal[[]ident.ID]) {
		t.Fatalf("reruns differ:\n%v\n%v", a, b)
	}
}

// lockstepRef is the lock-step loop HSS ran on before it moved onto the
// event engine (the deleted SyncEngine's step, trace calls dropped). In
// each step every alive process broadcasts; a process crashing in the step
// reaches each peer with its delivery probability and receives nothing;
// then every process still alive receives the step's messages.
type lockstepRef struct {
	ids      ident.Assignment
	rng      *rand.Rand
	procs    []StepProcess
	crashed  []bool
	schedule map[int][]stepCrash
	step     int
}

// refEnv is the environment lockstepRef gives StepSend: a process's
// identifier, which is all a step's broadcast may depend on.
type refEnv struct {
	Environment
	id ident.ID
}

func (e refEnv) ID() ident.ID { return e.id }

func (e *lockstepRef) runStep() {
	e.step++
	crashingNow := make(map[PID]float64)
	for _, c := range e.schedule[e.step] {
		if !e.crashed[c.pid] {
			crashingNow[c.pid] = c.prob
		}
	}
	inboxes := make([][]any, len(e.procs))
	for p := range e.procs {
		if e.crashed[p] {
			continue
		}
		payload := e.procs[p].StepSend(refEnv{id: e.ids[p]})
		prob, crashing := crashingNow[PID(p)]
		for q := range e.procs {
			if e.crashed[q] {
				continue
			}
			if _, qc := crashingNow[PID(q)]; qc {
				continue // a process crashing this step receives nothing
			}
			if crashing && e.rng.Float64() >= prob {
				continue
			}
			inboxes[q] = append(inboxes[q], payload)
		}
	}
	for p := range e.procs {
		if _, c := crashingNow[PID(p)]; c {
			e.crashed[p] = true
		}
	}
	for p := range e.procs {
		if !e.crashed[p] {
			e.procs[p].StepRecv(inboxes[p])
		}
	}
}

func runLockstepRef(ids ident.Assignment, steps int, crashes []stepCrash) []*identSender {
	ref := &lockstepRef{ids: ids, rng: rand.New(rand.NewSource(1)), crashed: make([]bool, ids.N()), schedule: make(map[int][]stepCrash)}
	procs := make([]*identSender, ids.N())
	for i := range procs {
		procs[i] = &identSender{}
		ref.procs = append(ref.procs, procs[i])
	}
	for _, c := range crashes {
		ref.schedule[c.step] = append(ref.schedule[c.step], c)
	}
	for ref.step < steps {
		ref.runStep()
	}
	return procs
}

// TestLockstepMatchesReference holds Lockstep to lockstepRef, per process
// per step, over every system of 3–7 processes with one, two or n
// identifiers, 1–7 steps, and one crash or two (adjacent processes, the
// same step included) at every step with delivery probability 0 or 1 —
// the probabilities for which the two draw nothing and must agree exactly.
func TestLockstepMatchesReference(t *testing.T) {
	runs := 0
	for n := 3; n <= 7; n++ {
		for _, l := range []int{1, 2, n} {
			ids := ident.Balanced(n, l)
			for steps := 1; steps <= 7; steps++ {
				var grid [][]stepCrash
				grid = append(grid, nil)
				for p := 0; p < n; p++ {
					for s1 := 1; s1 <= steps; s1++ {
						for _, pr1 := range []float64{0, 1} {
							one := stepCrash{pid: PID(p), step: s1, prob: pr1}
							grid = append(grid, []stepCrash{one})
							for s2 := s1; s2 <= steps; s2++ {
								for _, pr2 := range []float64{0, 1} {
									grid = append(grid, []stepCrash{one, {pid: PID((p + 1) % n), step: s2, prob: pr2}})
								}
							}
						}
					}
				}
				for _, crashes := range grid {
					name := fmt.Sprintf("n=%d l=%d steps=%d crashes=%v", n, l, steps, crashes)
					_, got := runLockstep(t, ids, 1, steps, crashes)
					want := runLockstepRef(ids, steps, crashes)
					for p := range want {
						if !slices.EqualFunc(got[p].perStep, want[p].perStep, slices.Equal[[]ident.ID]) {
							t.Fatalf("%s: process %d received %v per step, the reference %v", name, p, got[p].perStep, want[p].perStep)
						}
					}
					runs++
				}
			}
		}
	}
	t.Logf("%d runs agree with the reference", runs)
}
