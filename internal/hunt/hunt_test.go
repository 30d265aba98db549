package hunt

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestCorpusReplay replays every checked-in regression scenario and
// demands its pinned verdict byte-for-byte. A drift here means either a
// regression (a PASS entry now fails) or a silent behaviour change (the
// verdict's statistics moved) — both need a human decision, recorded by
// re-pinning with `go run ./cmd/hunt -pin`.
func TestCorpusReplay(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("corpus has %d entries, want at least 5", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			e, err := DecodeEntry(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := Replay(e); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCorpusCoversWedgeClass pins the corpus's reason to exist: the
// PR-5 leader-group wedge class (a fig9 rejoiner stranded by churn that
// takes out leader-identity holders) must stay represented by replayed
// entries.
func TestCorpusCoversWedgeClass(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "leader-wedge-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 2 {
		t.Fatalf("found %d leader-wedge entries, want at least 2", len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		e, err := DecodeEntry(data)
		if err != nil {
			t.Fatal(err)
		}
		if e.Scenario.Kind != "fig9" || e.Scenario.Churn.Fraction <= 0 {
			t.Errorf("%s: wedge-class entries are fig9 churn scenarios, got kind=%q fraction=%v",
				f, e.Scenario.Kind, e.Scenario.Churn.Fraction)
		}
		if !strings.HasPrefix(e.Want, "PASS") {
			t.Errorf("%s: wedge-class entries pin the healthy-tree PASS, got %q", f, e.Want)
		}
	}
}

// failingScenario is a deterministic Failed (loss-liveness) scenario the
// shrinker tests reduce: a partitioned consensus run cannot terminate
// because the cores broadcast each phase message exactly once.
func failingScenario() Scenario {
	return Sanitize(Scenario{
		Kind: "fig9", N: 6, L: 3, Seed: 3, Net: "async:6",
		Crashes: []CrashEntry{{P: 5, At: 50}},
		Partitions: []sim.PartitionWindow{
			{From: 5, To: 30, Cut: 2},
			{From: 45, To: 70, Cut: 2},
		},
	})
}

func TestShrinkSoundness(t *testing.T) {
	s := failingScenario()
	orig := s.Run()
	if !orig.Failed() {
		t.Fatalf("fixture must fail, got %s", orig.Verdict)
	}

	oracle := func(c Scenario) Outcome { return c.Run() }
	min, minOut := Shrink(s, oracle)

	// Strictly smaller under the documented Size metric (the fixture has
	// droppable structure, so the shrinker must make progress).
	if min.Size() >= s.Size() {
		t.Errorf("shrink made no progress: %d -> %d", s.Size(), min.Size())
	}
	// The failure signature is preserved.
	if !minOut.Failed() {
		t.Fatalf("minimal scenario does not fail: %s", minOut.Verdict)
	}
	if minOut.Class != orig.Class {
		t.Errorf("shrink changed failure class %q -> %q", orig.Class, minOut.Class)
	}
	// The minimal scenario is still admissible and a fixed point of
	// Sanitize.
	if err := min.Validate(); err != nil {
		t.Errorf("minimal scenario invalid: %v", err)
	}
	if got := Sanitize(min); !reflect.DeepEqual(got, min) {
		t.Errorf("minimal scenario not Sanitize-stable:\n got %+v\nwant %+v", got, min)
	}

	// Differential determinism: shrinking the same scenario again yields
	// the identical minimal form and verdict.
	min2, minOut2 := Shrink(s, oracle)
	if !reflect.DeepEqual(min, min2) {
		t.Errorf("shrink not deterministic:\n first %+v\nsecond %+v", min, min2)
	}
	if minOut.Verdict != minOut2.Verdict {
		t.Errorf("shrink verdict not deterministic: %q vs %q", minOut.Verdict, minOut2.Verdict)
	}
}

func TestShrinkRequiresFailure(t *testing.T) {
	s := Sanitize(Scenario{Kind: "fig9", N: 6, L: 3, Seed: 1})
	min, out := Shrink(s, func(c Scenario) Outcome { return c.Run() })
	if !out.OK {
		t.Fatalf("healthy scenario failed: %s", out.Verdict)
	}
	if !reflect.DeepEqual(min, s) {
		t.Errorf("shrink of a passing scenario must be the identity, got %+v", min)
	}
}

// TestFuzzDeterministic pins the campaign determinism contract: the log
// (and therefore the findings) is byte-identical for a fixed (Seeds,
// MasterSeed, Budget) at any worker parallelism.
func TestFuzzDeterministic(t *testing.T) {
	seeds := []Scenario{
		Sanitize(Scenario{Kind: "fig9", N: 5, L: 2, Seed: 1}),
		Sanitize(Scenario{Kind: "ohp", N: 4, L: 2, Seed: 2}),
	}
	campaign := func(workers int) (string, FuzzResult) {
		sweep.SetDefaultWorkers(workers)
		defer sweep.SetDefaultWorkers(0)
		var buf bytes.Buffer
		res := Fuzz(FuzzConfig{Seeds: seeds, MasterSeed: 11, Budget: 24, BatchSize: 8, Log: &buf})
		return buf.String(), res
	}

	log1, res1 := campaign(1)
	log2, res2 := campaign(1)
	if log1 != log2 {
		t.Errorf("same-config campaigns diverged:\n--- first\n%s--- second\n%s", log1, log2)
	}
	logPar, resPar := campaign(8)
	if log1 != logPar {
		t.Errorf("serial and parallel campaigns diverged:\n--- serial\n%s--- parallel\n%s", log1, logPar)
	}
	if res1.Executed != res2.Executed || res1.Executed != resPar.Executed ||
		res1.Coverage != resPar.Coverage || len(res1.Findings) != len(resPar.Findings) {
		t.Errorf("campaign results diverged: %+v vs %+v vs %+v", res1, res2, resPar)
	}
}

// TestFuzzHealthyTreeFindsNothing runs a small campaign over the
// structured seeds: on a healthy tree every seed passes (or downgrades to
// loss-liveness) and the fuzzer reports zero findings.
func TestFuzzHealthyTreeFindsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign fixture is slow")
	}
	var buf bytes.Buffer
	res := Fuzz(FuzzConfig{MasterSeed: 1, Budget: len(StructuredSeeds()), Log: &buf})
	if len(res.Findings) != 0 {
		t.Errorf("healthy tree produced findings:\n%s", buf.String())
	}
}

// TestMutateStaysAdmissible drives the mutator hard and checks every
// mutant validates, is Sanitize-stable, and that the stream is a pure
// function of the rng seed.
func TestMutateStaysAdmissible(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := Sanitize(Scenario{Kind: "fig9", N: 6, L: 3, Seed: 1})
	for i := 0; i < 500; i++ {
		s = Mutate(s, r)
		if err := s.Validate(); err != nil {
			t.Fatalf("mutant %d invalid: %v\n%+v", i, err, s)
		}
		if got := Sanitize(s); !reflect.DeepEqual(got, s) {
			t.Fatalf("mutant %d not Sanitize-stable:\n got %+v\nwant %+v", i, got, s)
		}
	}

	// Same seed, same stream.
	ra, rb := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	sa := Sanitize(Scenario{Kind: "fig8", N: 7, L: 3, T: 2, Seed: 1})
	sb := sa.Clone()
	for i := 0; i < 100; i++ {
		sa, sb = Mutate(sa, ra), Mutate(sb, rb)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("mutation stream diverged at step %d", i)
		}
	}
}

func TestStructuredSeedsAdmissible(t *testing.T) {
	seeds := StructuredSeeds()
	if len(seeds) < 10 {
		t.Fatalf("got %d structured seeds, want at least 10", len(seeds))
	}
	kinds := map[string]bool{}
	for i, s := range seeds {
		if err := s.Validate(); err != nil {
			t.Errorf("seed %d invalid: %v", i, err)
		}
		if got := Sanitize(s); !reflect.DeepEqual(got, s) {
			t.Errorf("seed %d not Sanitize-stable:\n got %+v\nwant %+v", i, got, s)
		}
		kinds[s.Kind] = true
	}
	for _, k := range Kinds {
		if !kinds[k] {
			t.Errorf("no structured seed for kind %q", k)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		msg  string
		want string
	}{
		{"check: termination violated — eventually-up process 0 did not decide", ClassTermination},
		{"check: agreement violated — processes decided differently", ClassAgreement},
		{"check: validity violated — decided value was never proposed", ClassValidity},
		{"check: round agreement violated", ClassRoundAgreement},
		{"monitor: process 3 changed its decision", ClassDecisionMonitor},
		{"fd: HSigma intersection empty", ClassDetector},
		{"◇HP̄ liveness: process 0 trusts {g001}", ClassDetector},
		{"HΩ election: no common leader", ClassDetector},
		{"Σ safety: quorums do not intersect", ClassDetector},
		{"heartbeat: process 2 heard no beats from 4", ClassLiveness},
		{"detector output disagrees with ground truth", ClassTruthDrift},
		{"run truncated by the MaxEvents guard", ClassGuard},
		{"core: internal invariant broken", ClassInvariant},
		{"hds: population must be non-empty", ClassConfig},
		{"something nobody has seen before", ClassInvariant},
	}
	for _, c := range cases {
		if got := Classify(errString(c.msg)); got != c.want {
			t.Errorf("Classify(%q) = %q, want %q", c.msg, got, c.want)
		}
	}
	if got := Classify(nil); got != "" {
		t.Errorf("Classify(nil) = %q, want empty", got)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestOutcomeReportable(t *testing.T) {
	cases := []struct {
		o          Outcome
		failed     bool
		reportable bool
	}{
		{Outcome{OK: true}, false, false},
		{Outcome{Class: ClassTermination}, true, true},
		{Outcome{Class: ClassLossLiveness}, true, false},
		{Outcome{Class: ClassConfig}, false, false},
	}
	for _, c := range cases {
		if got := c.o.Failed(); got != c.failed {
			t.Errorf("Failed(%+v) = %v, want %v", c.o, got, c.failed)
		}
		if got := c.o.Reportable(); got != c.reportable {
			t.Errorf("Reportable(%+v) = %v, want %v", c.o, got, c.reportable)
		}
	}
}

// TestLossLivenessDowngrade pins the model-hypothesis boundary: injected
// loss excuses consensus termination (the cores broadcast once over
// links the paper assumes reliable) but must never excuse safety.
func TestLossLivenessDowngrade(t *testing.T) {
	part := Sanitize(Scenario{
		Kind: "fig9", N: 6, L: 3, Seed: 1,
		Partitions: []sim.PartitionWindow{{From: 5, To: 30, Cut: 2}, {From: 45, To: 70, Cut: 2}},
	})
	o := part.Run()
	if o.OK || o.Class != ClassLossLiveness {
		t.Errorf("partitioned fig9: got OK=%v class=%q, want loss-liveness failure\n%s", o.OK, o.Class, o.Verdict)
	}
	if o.Reportable() {
		t.Error("loss-liveness outcomes must not be reportable")
	}
	if !o.Failed() {
		t.Error("loss-liveness outcomes are still failures (the shrinker works on them)")
	}
}

// TestScenarioRunDeterministic: the verdict is a pure function of the
// scenario — two runs agree byte-for-byte, including statistics.
func TestScenarioRunDeterministic(t *testing.T) {
	scs := []Scenario{
		Sanitize(Scenario{Kind: "fig9", N: 6, L: 3, Seed: 4, Net: "async:8",
			Churn: sim.ChurnSpec{Fraction: 0.34, Cycles: 1, Start: 2, Down: 60, Stagger: 7}}),
		Sanitize(Scenario{Kind: "heartbeat", N: 8, L: 4, Seed: 1,
			Churn: sim.ChurnSpec{Fraction: 0.5, Cycles: 2, Stagger: 5}}),
	}
	for _, s := range scs {
		a, b := s.Run(), s.Run()
		if a.Verdict != b.Verdict {
			t.Errorf("%s: verdict drifted between runs:\n%s\n%s", s.Fingerprint(), a.Verdict, b.Verdict)
		}
	}
}

func TestEncodeDecodeEntryRoundTrip(t *testing.T) {
	e := Entry{
		Name:     "round-trip",
		Note:     "encode/decode fidelity",
		Scenario: failingScenario(),
		Want:     "FAIL class=loss-liveness err=\"x\"",
	}
	data, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Errorf("round trip changed entry:\n in  %+v\n out %+v", e, got)
	}

	if _, err := DecodeEntry([]byte(`{"name":"","scenario":{"kind":"fig9","n":3,"l":1,"seed":1}}`)); err == nil {
		t.Error("DecodeEntry accepted an entry with no name")
	}
	if _, err := DecodeEntry([]byte(`{"name":"bad","scenario":{"kind":"nope","n":3,"l":1,"seed":1}}`)); err == nil {
		t.Error("DecodeEntry accepted an invalid scenario")
	}
	if _, err := DecodeEntry([]byte(`{"name":"typo","scenario":{"kind":"fig9","n":3,"l":1,"seed":1},"wnat":"PASS"}`)); err == nil {
		t.Error("DecodeEntry accepted an unknown field")
	}
	if _, err := DecodeEntry([]byte(`{"name":"tail","scenario":{"kind":"fig9","n":3,"l":1,"seed":1}} {}`)); err == nil {
		t.Error("DecodeEntry accepted data after the entry")
	}
}

// TestRunCostRanksFigure6First: Figure 6 runs poll until their horizon and
// are what a campaign waits for, so in the structured seeds every ohp
// scenario must cost more than every scenario of another kind, and a
// longer horizon or a larger population must cost more.
func TestRunCostRanksFigure6First(t *testing.T) {
	var cheapestOHP, dearestOther int64 = -1, -1
	for _, s := range StructuredSeeds() {
		c := s.runCost()
		if s.Kind == "ohp" {
			if cheapestOHP < 0 || c < cheapestOHP {
				cheapestOHP = c
			}
		} else if c > dearestOther {
			dearestOther = c
		}
	}
	if cheapestOHP <= dearestOther {
		t.Errorf("cheapest ohp seed costs %d, dearest other seed %d", cheapestOHP, dearestOther)
	}
	base := Scenario{Kind: "ohp", N: 6, L: 3}
	longer, larger := base, base
	longer.Horizon, larger.N = 6000, 7
	if base.runCost() >= longer.runCost() || base.runCost() >= larger.runCost() {
		t.Errorf("costs %d (default horizon, n=6), %d (horizon 6000), %d (n=7): want the first lowest",
			base.runCost(), longer.runCost(), larger.runCost())
	}
}
