package reduce

import (
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/fd/hsigma"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
)

// outputLog keeps every h_labels and h_quora one HΣ detector returned,
// each beside a deep copy taken when it was returned.
type outputLog struct {
	labels, labelsCopy [][]fd.Label
	quora, quoraCopy   [][]fd.QuorumPair
}

// query reads the detector twice in a row — with no event in between, the
// two reads must return the identical slices — and logs any output whose
// identity differs from the last one logged.
func (o *outputLog) query(t *testing.T, name string, d fd.HSigma) {
	t.Helper()
	labels, quora := d.Labels(), d.Quora()
	if l, q := d.Labels(), d.Quora(); !sameSlice(l, labels) || !sameSlice(q, quora) {
		t.Fatalf("%s: two queries with no event between them returned different slices", name)
	}
	if n := len(o.labels); n == 0 || !sameSlice(o.labels[n-1], labels) {
		o.labels = append(o.labels, labels)
		o.labelsCopy = append(o.labelsCopy, slices.Clone(labels))
	}
	if n := len(o.quora); n == 0 || !sameSlice(o.quora[n-1], quora) {
		o.quora = append(o.quora, quora)
		cp := make([]fd.QuorumPair, len(quora))
		for i, p := range quora {
			cp[i] = fd.QuorumPair{Label: p.Label, M: p.M.Clone()}
		}
		o.quoraCopy = append(o.quoraCopy, cp)
	}
}

// ticker keeps virtual time moving on a node whose modules set no timer of
// their own (the oracle's), so queries see its outputs change.
type ticker struct{ env sim.Environment }

func (k *ticker) Init(env sim.Environment) { k.env = env; env.SetTimer(DefaultPollInterval, 0) }
func (k *ticker) OnMessage(any)            {}
func (k *ticker) OnTimer(int)              { k.env.SetTimer(DefaultPollInterval, 0) }

// sameSlice reports whether a and b are the same slice: same first element
// and length.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// verify checks that every slice the detector returned still holds what it
// held when it was returned, and reports how many distinct outputs there
// were.
func (o *outputLog) verify(t *testing.T, name string) (changes int) {
	t.Helper()
	for i, l := range o.labels {
		if !slices.Equal(l, o.labelsCopy[i]) {
			t.Errorf("%s: h_labels returned as %v now reads %v", name, o.labelsCopy[i], l)
		}
	}
	for i, q := range o.quora {
		if !fd.QuoraEqual(q, o.quoraCopy[i]) {
			t.Errorf("%s: h_quora output %d was written to after it was returned", name, i)
		}
	}
	return len(o.labels) + len(o.quora) - 2
}

// TestHSigmaOutputsAreImmutable holds every HΣ producer to fd.HSigma's
// contract — the oracle, the four reduction stacks and Figure 7 — over a
// run whose outputs change (crashes, stabilization, membership discovery):
// after every event, two queries in a row return the identical slices, and
// at the end every slice ever returned still equals a copy taken when it
// was returned. Fig. 9's step memo takes an unchanged slice for an
// unchanged output, and its reception buffers keep senders' label slices
// without copying them; both rest on this.
//
// Verified to fail with SigmaToHSigmaUnknown.OnMessage rebuilding its
// labels in place (m.labels[:0]): the h_labels returned before an IDENT
// arrival change under their holders.
func TestHSigmaOutputsAreImmutable(t *testing.T) {
	stacks := []struct {
		name  string
		ids   ident.Assignment
		stack Stack[fd.HSigma]
	}{
		{"oracle", ident.Balanced(4, 2), func(w *oracle.World, node *sim.Node) fd.HSigma {
			d := oracle.NewHSigma(w)
			node.Add("hsigma", d)
			return d
		}},
		{"Figure 1", ident.Unique(4), StackFig1},
		{"Figure 2", ident.Unique(4), StackFig2},
		{"Theorem 3", ident.AnonymousN(4), StackThm3},
		{"Lemma 3", ident.AnonymousN(4), StackLemma3},
	}
	crashes := map[sim.PID]sim.Time{1: 30, 3: 70}
	for _, s := range stacks {
		eng := sim.New(sim.Config{IDs: s.ids, Seed: 1, Net: sim.Async{MaxDelay: 6}})
		world := oracle.NewWorld(fd.NewGroundTruth(s.ids, crashes), stabilize)
		dets := make([]fd.HSigma, s.ids.N())
		logs := make([]outputLog, len(dets))
		for i := range dets {
			node := sim.NewNode()
			dets[i] = s.stack(world, node)
			eng.AddProcess(node.Add("ticker", &ticker{}))
		}
		eng.AfterEvent(func(_ sim.Time, p sim.PID) {
			for q := range dets {
				logs[q].query(t, s.name, dets[q])
			}
		})
		eng.CrashSchedule(crashes)
		eng.Run(horizon)
		changes := 0
		for p := range logs {
			changes += logs[p].verify(t, s.name)
		}
		if changes == 0 {
			t.Errorf("%s: no output ever changed, so nothing was held to the contract", s.name)
		}
	}

	// Figure 7 runs in lock-step.
	ids := ident.Balanced(5, 2)
	eng := sim.New(sim.LockstepConfig(sim.Config{IDs: ids, Seed: 1}, 10))
	dets := make([]*hsigma.Detector, ids.N())
	logs := make([]outputLog, len(dets))
	for i := range dets {
		dets[i] = hsigma.New()
		eng.AddProcess(sim.NewLockstep(dets[i]))
	}
	eng.CrashDuringBroadcast(1, sim.StepStart(3), 0.5)
	eng.AfterEvent(func(sim.Time, sim.PID) {
		for p := range dets {
			logs[p].query(t, "Figure 7", dets[p])
		}
	})
	eng.Run(sim.StepEnd(10))
	changes := 0
	for p := range logs {
		changes += logs[p].verify(t, "Figure 7")
	}
	if changes == 0 {
		t.Error("Figure 7: no output ever changed, so nothing was held to the contract")
	}
}
