package sim

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

func sampleDelays(t *testing.T, m Model, n int, seed int64) []Time {
	t.Helper()
	r := testFate(seed)
	out := make([]Time, 0, n)
	for i := 0; i < n; i++ {
		d, ok := m.Delay(Time(i), r)
		if !ok {
			continue
		}
		out = append(out, d)
	}
	return out
}

func TestParetoDelaysBoundedAndHeavyTailed(t *testing.T) {
	m := Pareto{Scale: 2, Alpha: 1.2, Cap: 500}
	ds := sampleDelays(t, m, 20000, 1)
	if len(ds) != 20000 {
		t.Fatal("pareto lost messages; it is a reliable model")
	}
	tail := 0
	for _, d := range ds {
		if d < 2 || d > 500 {
			t.Fatalf("delay %d outside [scale, cap]", d)
		}
		if d > 50 {
			tail++
		}
	}
	if tail == 0 {
		t.Fatal("no delay above 25x the scale in 20k draws; tail is not heavy")
	}
	if tail > len(ds)/2 {
		t.Fatalf("%d/%d draws in the tail; body is missing", tail, len(ds))
	}
}

func TestLogNormalDelaysBounded(t *testing.T) {
	m := LogNormal{Median: 4, Sigma: 1.2, Cap: 300}
	ds := sampleDelays(t, m, 20000, 2)
	below, above := 0, 0
	for _, d := range ds {
		if d < 1 || d > 300 {
			t.Fatalf("delay %d outside [1, cap]", d)
		}
		if d <= 4 {
			below++
		} else {
			above++
		}
	}
	// The median parameter must roughly split the draws.
	if below < len(ds)/3 || above < len(ds)/3 {
		t.Fatalf("median split %d/%d is far from the configured median", below, above)
	}
}

func TestModelDeterminismPerSeed(t *testing.T) {
	for _, m := range []Model{
		Pareto{Scale: 1, Alpha: 1.5},
		LogNormal{Median: 3, Sigma: 1},
		Alternating{Period: 20, GoodDelta: 3, BadMax: 40, BadLoss: 0.3},
	} {
		a := sampleDelays(t, m, 500, 7)
		b := sampleDelays(t, m, 500, 7)
		if len(a) != len(b) {
			t.Fatalf("%s: draw counts differ", m)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: draw %d differs: %d vs %d", m, i, a[i], b[i])
			}
		}
	}
}

func TestAlternatingWindows(t *testing.T) {
	m := Alternating{Period: 10, GoodDelta: 2, BadMax: 50, BadLoss: 0, CalmAfter: 100}
	r := testFate(3)
	for i := 0; i < 2000; i++ {
		tm := Time(i % 200)
		d, ok := m.Delay(tm, r)
		if !ok {
			t.Fatalf("loss with BadLoss=0 at t=%d", tm)
		}
		inBad := (tm/10)%2 == 1 && tm < 100
		if !inBad && d > 2 {
			t.Fatalf("good-window delay %d > δ=2 at t=%d", d, tm)
		}
		if d > 50 {
			t.Fatalf("delay %d above BadMax at t=%d", d, tm)
		}
	}
	lossy := Alternating{Period: 10, GoodDelta: 2, BadLoss: 1}
	if _, ok := lossy.Delay(15, r); ok {
		t.Fatal("bad window with BadLoss=1 delivered")
	}
	if _, ok := lossy.Delay(5, r); !ok {
		t.Fatal("good window lost a message")
	}
}

func TestAsymmetricLinksSkewDeterministicAndAsymmetric(t *testing.T) {
	m := AsymmetricLinks{Base: Timely{Delta: 1}, MaxSkew: 20}
	if m.Skew(1, 2) != m.Skew(1, 2) {
		t.Fatal("skew not deterministic")
	}
	diff := false
	for from := PID(0); from < 8 && !diff; from++ {
		for to := PID(0); to < 8; to++ {
			if m.Skew(from, to) != m.Skew(to, from) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("no asymmetric link pair among 64 links")
	}
	for from := PID(0); from < 8; from++ {
		for to := PID(0); to < 8; to++ {
			if s := m.Skew(from, to); s < 0 || s > 20 {
				t.Fatalf("skew %d outside [0, MaxSkew]", s)
			}
		}
	}
}

// TestEngineUsesLinkDelays pins the LinkModel wiring: with a timely base
// and per-link skew, one broadcast's copies arrive at link-dependent times.
func TestEngineUsesLinkDelays(t *testing.T) {
	net := AsymmetricLinks{Base: Timely{Delta: 1}, MaxSkew: 30}
	rec := trace.NewRecorder()
	eng := New(Config{IDs: ident.Unique(6), Net: net, Seed: 1, Recorder: rec})
	for i := 0; i < 6; i++ {
		eng.AddProcess(&echoProc{})
	}
	eng.Run(100)
	arrivals := map[int64]bool{}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindDeliver {
			arrivals[ev.Time] = true
		}
	}
	if len(arrivals) < 3 {
		t.Fatalf("only %d distinct delivery times; per-link skew not applied", len(arrivals))
	}
	// Replays must be identical: the skew is part of the deterministic run.
	rec2 := trace.NewRecorder()
	eng2 := New(Config{IDs: ident.Unique(6), Net: net, Seed: 1, Recorder: rec2})
	for i := 0; i < 6; i++ {
		eng2.AddProcess(&echoProc{})
	}
	eng2.Run(100)
	a, b := rec.Events(), rec2.Events()
	if len(a) != len(b) {
		t.Fatalf("replay trace length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay event %d differs", i)
		}
	}
}
