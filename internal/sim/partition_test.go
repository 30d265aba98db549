package sim

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// TestPartitionWindowActive pins the cut semantics: a window severs exactly
// the cross-cut links, exactly inside [From, To).
func TestPartitionWindowActive(t *testing.T) {
	w := PartitionWindow{From: 10, To: 20, Cut: 2}
	cases := []struct {
		t        Time
		from, to PID
		want     bool
	}{
		{9, 0, 3, false},  // before the window
		{10, 0, 3, true},  // boundary: From is inclusive
		{19, 3, 0, true},  // crossing in the other direction severs too
		{20, 0, 3, false}, // boundary: To is exclusive
		{15, 0, 1, false}, // same side (both < Cut)
		{15, 2, 3, false}, // same side (both >= Cut)
		{15, 1, 2, true},  // adjacent across the cut
	}
	for _, c := range cases {
		if got := w.Active(c.t, c.from, c.to); got != c.want {
			t.Errorf("Active(t=%d, %d->%d) = %v, want %v", c.t, c.from, c.to, got, c.want)
		}
	}
}

// TestPartitionCheck pins the two schedule checks: a cut at or beyond n
// puts everyone on one side, and a window still open at the horizon means
// the network never heals inside the run, exactly like a churn schedule
// the horizon cuts short.
func TestPartitionCheck(t *testing.T) {
	cut3 := Partition{Windows: []PartitionWindow{{From: 10, To: 20, Cut: 3}}}
	for _, c := range []struct {
		p       Partition
		n       int
		horizon Time
		ok      bool
		why     string
	}{
		{cut3, 5, 100, true, "cut 3 of n=5"},
		{cut3, 4, 100, true, "cut 3 of n=4 (boundary)"},
		{cut3, 3, 100, false, "cut 3 of n=3 severs nothing"},
		{cut3, 2, 100, false, "cut 3 of n=2 severs nothing"},
		{Partition{}, 1, 1, true, "empty schedule"},
	} {
		if err := c.p.Check(c.n, c.horizon); (err == nil) != c.ok {
			t.Errorf("%s: Check = %v, want ok=%v", c.why, err, c.ok)
		}
	}
	two := Partition{Windows: []PartitionWindow{{From: 10, To: 60, Cut: 2}, {From: 70, To: 90, Cut: 2}}}
	for _, c := range []struct {
		horizon Time
		ok      bool
		why     string
	}{
		{100, true, "horizon 100 > last end 90"},
		{91, true, "horizon 91 (boundary: strictly after the last end)"},
		{90, false, "horizon 90 == last end truncates the heal"},
		{50, false, "horizon 50 leaves a window open"},
	} {
		if err := two.Check(5, c.horizon); (err == nil) != c.ok {
			t.Errorf("%s: Check = %v, want ok=%v", c.why, err, c.ok)
		}
	}
}

// TestPartitionSeversDelivery runs a broadcast workload under a total
// mid-run partition and asserts the trace shows cross-cut copies dropped
// during the window and delivered outside it.
func TestPartitionSeversDelivery(t *testing.T) {
	const n = 4
	net := Partition{Base: Timely{Delta: 1}, Windows: []PartitionWindow{{From: 10, To: 30, Cut: 2}}}
	rec := trace.NewRecorder()
	eng := New(Config{IDs: ident.Unique(n), Net: net, Seed: 1, Recorder: rec})
	for i := 0; i < n; i++ {
		eng.AddProcess(&fanPoll{period: 5})
	}
	eng.Run(50)

	// Before t=10 and from t=30 on, every broadcast reaches all n processes;
	// inside the window each broadcast reaches only its own side (2 of 4).
	st := rec.Stats()
	if st.Dropped == 0 {
		t.Fatalf("no drops recorded across a total partition window: %+v", st)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindDrop {
			if ev.Time < 10 || ev.Time >= 31 {
				// Copies sent at the window edge (t in [10,30)) with Delta=1
				// land by t=30; nothing sent outside the window may drop.
				t.Fatalf("drop outside the partition window at t=%d: %s", ev.Time, ev.String())
			}
		}
	}

	// The same run without windows drops nothing.
	rec2 := trace.NewRecorder()
	eng2 := New(Config{IDs: ident.Unique(n), Net: Partition{Base: Timely{Delta: 1}}, Seed: 1, Recorder: rec2})
	for i := 0; i < n; i++ {
		eng2.AddProcess(&fanPoll{period: 5})
	}
	eng2.Run(50)
	if st2 := rec2.Stats(); st2.Dropped != 0 {
		t.Fatalf("windowless Partition dropped %d copies", st2.Dropped)
	}
}

// TestPartitionDelegatesToLinkBase pins per-link delegation: wrapping an
// AsymmetricLinks base must preserve its per-link skews for unsevered
// copies (the partition consumes no randomness of its own).
func TestPartitionDelegatesToLinkBase(t *testing.T) {
	base := AsymmetricLinks{Base: Timely{Delta: 2}, MaxSkew: 9}
	part := Partition{Base: base, Windows: []PartitionWindow{{From: 100, To: 200, Cut: 1}}}
	r := testFate(7)
	for from := PID(0); from < 4; from++ {
		for to := PID(0); to < 4; to++ {
			d1, ok1 := base.LinkDelay(5, from, to, r)
			d2, ok2 := part.LinkDelay(5, from, to, r)
			if ok1 != ok2 || d1 != d2 {
				// Timely consumes no randomness, so the shared r stays in
				// phase between the two calls.
				t.Fatalf("link %d->%d: base (%d,%v) vs partition (%d,%v)", from, to, d1, ok1, d2, ok2)
			}
		}
	}
}

// TestLossyLossRate samples the Lossy model and checks the loss rate lands
// near P with the remaining copies delayed by the base model.
func TestLossyLossRate(t *testing.T) {
	net := Lossy{Base: Timely{Delta: 3}, P: 0.25}
	r := testFate(1)
	lost, delivered := 0, 0
	for i := 0; i < 10000; i++ {
		d, ok := net.Delay(0, r)
		if !ok {
			lost++
			continue
		}
		delivered++
		if d != 3 {
			t.Fatalf("surviving copy delayed %d, want the base model's 3", d)
		}
	}
	rate := float64(lost) / float64(lost+delivered)
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("loss rate %.3f, want ~0.25", rate)
	}
}

// TestLossyClamp pins the liveness guard: P >= 1 clamps to MaxLossP rather
// than silently making every link dead.
func TestLossyClamp(t *testing.T) {
	net := Lossy{P: 1.5}
	if got := net.p(); got != MaxLossP {
		t.Fatalf("p() = %v, want MaxLossP %v", got, MaxLossP)
	}
	r := testFate(1)
	for i := 0; i < 1000; i++ {
		if _, ok := net.Delay(0, r); ok {
			return // at least one copy survives
		}
	}
	t.Fatal("no copy survived 1000 draws under the clamped model")
}

// TestPartitionLossyStrings pins the canonical renderings used in logs and
// scenario fingerprints.
func TestPartitionLossyStrings(t *testing.T) {
	p := Partition{Base: Async{MaxDelay: 8}, Windows: []PartitionWindow{{From: 10, To: 30, Cut: 2}, {From: 50, To: 60, Cut: 3}}}
	if got, want := p.String(), "part[async[1..8] 10-30@2 50-60@3]"; got != want {
		t.Errorf("Partition.String() = %q, want %q", got, want)
	}
	l := Lossy{P: 0.3}
	if got, want := l.String(), "lossy[p=0.30 async[1..1]]"; got != want {
		t.Errorf("Lossy.String() = %q, want %q", got, want)
	}
	if got := LastWindowEnd(p.Windows); got != 60 {
		t.Errorf("LastWindowEnd = %d, want 60", got)
	}
	if got := LastWindowEnd(nil); got != 0 {
		t.Errorf("LastWindowEnd(nil) = %d, want 0", got)
	}
}
