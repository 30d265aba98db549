package hruntime

import (
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestClusterBroadcastDelivery(t *testing.T) {
	c := NewCluster(ident.Unique(3), Options{Seed: 1})
	defer c.Close()
	c.Broadcast(0, "hi")
	deadline := time.After(2 * time.Second)
	for p := 0; p < 3; p++ {
		select {
		case m := <-c.inboxes[p]:
			if m != "hi" {
				t.Fatalf("payload = %v", m)
			}
		case <-deadline:
			t.Fatalf("process %d never received", p)
		}
	}
}

// TestClusterTagsLikeSimulator: a live broadcast of an untagged payload
// records the tag the simulator records for it, for the broadcast and
// every delivery.
func TestClusterTagsLikeSimulator(t *testing.T) {
	rec := &trace.Recorder{KeepEvents: true}
	c := NewCluster(ident.Unique(2), Options{Seed: 3, Recorder: rec})
	c.Broadcast(0, "hi")
	for p := 0; p < 2; p++ {
		select {
		case <-c.inboxes[p]:
		case <-time.After(2 * time.Second):
			t.Fatalf("process %d never received", p)
		}
	}
	c.Close() // the recorder is read once its writers are gone
	want := sim.TagOf("hi")
	if want != "string" {
		t.Fatalf("sim.TagOf(\"hi\") = %q, want the type name", want)
	}
	kinds := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		if e.MsgTag != want {
			t.Errorf("%v event tagged %q, want %q", e.Kind, e.MsgTag, want)
		}
		kinds[e.Kind]++
	}
	if kinds[trace.KindBroadcast] != 1 || kinds[trace.KindDeliver] != 2 {
		t.Errorf("recorded %v, want one broadcast and two deliveries", kinds)
	}
}

func TestClusterCrashSilences(t *testing.T) {
	c := NewCluster(ident.Unique(2), Options{Seed: 2})
	defer c.Close()
	c.Crash(0)
	c.Broadcast(0, "x") // ignored: sender dead
	c.Broadcast(1, "y")
	select {
	case m := <-c.inboxes[1]:
		if m != "y" {
			t.Fatalf("got %v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery to live process")
	}
	select {
	case m := <-c.inboxes[0]:
		t.Fatalf("crashed process received %v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

// startDetectors runs one Figure 6 detector per process of c and returns
// them with their handles; the processes are stopped when the test ends.
func startDetectors(t *testing.T, c *Cluster) ([]*ohp.Detector, []*Proc) {
	t.Helper()
	dets := make([]*ohp.Detector, c.N())
	procs := make([]*Proc, c.N())
	for i := range procs {
		dets[i] = ohp.New()
		procs[i] = c.Start(i, dets[i])
		t.Cleanup(procs[i].Stop)
	}
	return dets, procs
}

// awaitDetectors polls until good holds for every listed detector, reading
// each on its own process's goroutine.
func awaitDetectors(t *testing.T, dets []*ohp.Detector, procs []*Proc, who []int, good func(*ohp.Detector) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for _, i := range who {
			procs[i].Do(func() { all = all && good(dets[i]) })
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			for _, i := range who {
				procs[i].Do(func() { t.Logf("p%d trusts %v", i, dets[i].Trusted()) })
			}
			t.Fatal("detectors did not converge")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLiveOHPConverges(t *testing.T) {
	ids := ident.Assignment{"a", "a", "b"}
	c := NewCluster(ids, Options{Seed: 4, MinDelay: 100 * time.Microsecond, MaxDelay: 500 * time.Microsecond})
	defer c.Close()
	dets, procs := startDetectors(t, c)

	// Crash p2 ("b") after a while; survivors must converge on {a, a}.
	time.Sleep(100 * time.Millisecond)
	c.Crash(2)

	awaitDetectors(t, dets, procs, []int{0, 1}, func(d *ohp.Detector) bool {
		tr := d.Trusted()
		li, ok := d.Leader()
		return tr.Len() == 2 && tr.Count("a") == 2 && ok && li.ID == "a" && li.Multiplicity == 2
	})
}

// decider is what the consensus helpers read from a core.Fig8 or core.Fig9.
type decider interface {
	sim.Process
	Decided() core.Outcome
	InvariantErr() error
}

// crashTruth is the fault pattern of a crash schedule given in real time,
// in the cluster's default 1ms units.
func crashTruth(ids ident.Assignment, crash map[int]time.Duration) *fd.GroundTruth {
	at := make(map[sim.PID]sim.Time, len(crash))
	for p, after := range crash {
		at[sim.PID(p)] = sim.Time(after / time.Millisecond)
	}
	return fd.NewGroundTruth(ids, at)
}

// liveProposals are the values liveRun's processes propose: "a", "b", ….
func liveProposals(n int) []core.Value {
	vs := make([]core.Value, n)
	for i := range vs {
		vs[i] = core.Value(string(rune('a' + i)))
	}
	return vs
}

// liveRun runs one consensus instance per process on a live cluster — stack
// attaches an instance's detector modules to its node — crashes processes
// on schedule, waits until every declared-correct process has decided, and
// judges the outcomes with the checker simulator runs are judged by.
func liveRun(t *testing.T, truth *fd.GroundTruth, opts Options, crash map[int]time.Duration, stack func(*sim.Node, core.Value) decider) {
	t.Helper()
	n := truth.IDs.N()
	c := NewCluster(truth.IDs, opts)
	defer c.Close()
	proposals := liveProposals(n)
	insts := make([]decider, n)
	procs := make([]*Proc, n)
	for i := range procs {
		node := sim.NewNode()
		insts[i] = stack(node, proposals[i])
		procs[i] = c.Start(i, node.Add("consensus", insts[i]))
		defer procs[i].Stop()
	}

	outcomes := make([]core.Outcome, n)
	read := func(p int) core.Outcome {
		procs[p].Do(func() { outcomes[p] = insts[p].Decided() })
		return outcomes[p]
	}
	start := time.Now()
	for {
		elapsed := time.Since(start)
		crashed := 0
		for p, after := range crash {
			if elapsed >= after {
				c.Crash(p)
				crashed++
			}
		}
		decided := 0
		for _, p := range truth.Correct() {
			if read(int(p)).Decided {
				decided++
			}
		}
		if crashed == len(crash) && decided == len(truth.Correct()) {
			break
		}
		if elapsed > 30*time.Second {
			t.Fatalf("timeout: %d/%d correct processes decided", decided, len(truth.Correct()))
		}
		time.Sleep(2 * time.Millisecond)
	}

	for p := range insts {
		read(p) // crashed processes too: a decision taken before the crash must agree
		procs[p].Do(func() {
			if err := insts[p].InvariantErr(); err != nil {
				t.Errorf("process %d: internal invariant: %v", p, err)
			}
		})
	}
	if _, err := check.Consensus(truth, proposals, outcomes); err != nil {
		t.Fatal(err)
	}
}

// liveConsensus runs the full live stack of the paper's HPS result:
// Figure 6 (◇HP̄ → HΩ) under Figure 8.
func liveConsensus(t *testing.T, ids ident.Assignment, tt int, crash map[int]time.Duration, opts Options) {
	t.Helper()
	opts.MinDelay, opts.MaxDelay = 100*time.Microsecond, 600*time.Microsecond
	liveRun(t, crashTruth(ids, crash), opts, crash, func(node *sim.Node, v core.Value) decider {
		det := ohp.New()
		node.Add("fd", det)
		return core.NewFig8(det, tt, v)
	})
}

func TestLiveConsensusFailureFree(t *testing.T) {
	liveConsensus(t, ident.Balanced(4, 2), 1, nil, Options{Seed: 5})
}

func TestLiveConsensusWithCrash(t *testing.T) {
	liveConsensus(t, ident.Balanced(5, 2), 2, map[int]time.Duration{3: 5 * time.Millisecond}, Options{Seed: 6})
}

func TestLiveConsensusAnonymous(t *testing.T) {
	liveConsensus(t, ident.AnonymousN(3), 1, nil, Options{Seed: 7})
}

func TestClusterGSTLossAndRecovery(t *testing.T) {
	// With PreLoss=1 every pre-GST copy is dropped; after GST delivery
	// resumes within MaxDelay.
	c := NewCluster(ident.Unique(2), Options{
		Seed:     9,
		MinDelay: 100 * time.Microsecond,
		MaxDelay: 500 * time.Microsecond,
		GST:      50 * time.Millisecond,
		PreLoss:  1,
	})
	defer c.Close()
	c.Broadcast(0, "early")
	select {
	case m := <-c.inboxes[1]:
		t.Fatalf("pre-GST message delivered despite PreLoss=1: %v", m)
	case <-time.After(20 * time.Millisecond):
	}
	time.Sleep(40 * time.Millisecond) // past GST
	c.Broadcast(0, "late")
	select {
	case m := <-c.inboxes[1]:
		if m != "late" {
			t.Fatalf("got %v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-GST message never delivered")
	}
}

func TestOHPDetectorToleratesPreGSTLoss(t *testing.T) {
	// The Figure 6 detector must converge even when every message before
	// GST is lost — Theorem 5 needs only the post-GST suffix.
	ids := ident.Assignment{"a", "a", "b"}
	c := NewCluster(ids, Options{
		Seed:     10,
		MinDelay: 100 * time.Microsecond,
		MaxDelay: 400 * time.Microsecond,
		GST:      40 * time.Millisecond,
		PreLoss:  1,
	})
	defer c.Close()
	dets, procs := startDetectors(t, c)
	awaitDetectors(t, dets, procs, []int{0, 1, 2}, func(d *ohp.Detector) bool {
		tr := d.Trusted()
		return tr.Len() == 3 && tr.Count("a") == 2 && tr.Count("b") == 1
	})
}
