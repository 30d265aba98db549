package hds

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fd/oracle"
	"repro/internal/ident"
)

func TestRunFig8Oracle(t *testing.T) {
	res, err := Experiment{
		Algo:      "fig8",
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Crashes:   map[PID]Time{1: 30},
		Stabilize: 80,
		Adversary: oracle.AdversaryRotate,
	}.Run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Deciders < 4 {
		t.Errorf("deciders = %d, want ≥ 4", res.Report.Deciders)
	}
	if res.Stats.Broadcasts == 0 || res.Stats.Delivered == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
}

func TestRunFig8EndToEnd(t *testing.T) {
	res, err := Experiment{
		Algo:      "fig8",
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Crashes:   map[PID]Time{3: 40},
		Net:       PartialSync{GST: 60, Delta: 3},
		Detectors: MessagePassingDetectors,
		Horizon:   2_000_000,
	}.Run(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Value == "" {
		t.Error("no decision value")
	}
}

func TestRunFig9MinorityCorrect(t *testing.T) {
	res, err := Experiment{
		Algo:      "fig9",
		IDs:       BalancedIDs(6, 3),
		Crashes:   map[PID]Time{0: 20, 1: 35, 2: 50, 3: 65},
		Stabilize: 120,
	}.Run(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Deciders < 2 {
		t.Errorf("deciders = %d, want ≥ 2", res.Report.Deciders)
	}
}

func TestRunFig9AnonymousBaseline(t *testing.T) {
	if _, err := (Experiment{
		Algo:      "fig9-anon",
		IDs:       ident.AnonymousN(5),
		Crashes:   map[PID]Time{4: 45},
		Stabilize: 100,
		Adversary: oracle.AdversaryRotate,
	}).Run(4, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunOHP(t *testing.T) {
	res, err := Experiment{
		Algo:    "ohp",
		IDs:     BalancedIDs(5, 2),
		Crashes: map[PID]Time{2: 50},
		Net:     PartialSync{GST: 60, Delta: 3},
	}.Run(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrustedStabilization < 50 {
		t.Errorf("stabilized at %d before the crash", res.TrustedStabilization)
	}
	if res.Leader.ID == "" {
		t.Error("no leader elected")
	}
	if len(res.FinalTimeouts) != 5 {
		t.Errorf("timeouts = %v", res.FinalTimeouts)
	}
}

func TestRunHSigma(t *testing.T) {
	res, err := RunHSigma(HSigmaExperiment{
		IDs:        BalancedIDs(6, 3),
		CrashSteps: map[PID]CrashStep{1: {Step: 3, DeliverProb: 0.5}},
		Steps:      10,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QuoraPerProcess) != 5 {
		t.Errorf("quora sizes = %v, want 5 survivors", res.QuoraPerProcess)
	}
}

// TestRunHSigmaPastDefaultEventCap runs more steps than the engine's
// default 5,000,000-event guard covers: the run must execute every step,
// not stop at the guard and verify the prefix.
func TestRunHSigmaPastDefaultEventCap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about 5.2M events")
	}
	const steps = 130_000
	res, err := RunHSigma(HSigmaExperiment{
		IDs:        BalancedIDs(6, 3),
		CrashSteps: map[PID]CrashStep{1: {Step: 2, DeliverProb: 0.5}},
		Steps:      steps,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if events := res.Stats.Delivered + res.Stats.Dropped + res.Stats.Timers + res.Stats.TimerDrops; events <= 5_000_000 {
		t.Fatalf("the run took %d events, not past the default guard", events)
	}
	// Six processes broadcast in steps 1 and 2, five in every later step.
	if got, want := res.Stats.ByTag["IDENT"], 2*6+5*(steps-2); got != want {
		t.Errorf("%d IDENT broadcasts, want %d", got, want)
	}
	if res.StabilizationStep != 3 {
		t.Errorf("stabilized at step %d, want 3", res.StabilizationStep)
	}
}

// TestRunHSigmaStabilizesOneStepAfterLastCrash checks E8's Theorem 6 note
// over a seeded grid, partial deliveries included: a run with a step after
// its last crash verifies, and a verified run's outputs stop changing by
// the step after the last crash (step 1 without crashes).
func TestRunHSigmaStabilizesOneStepAfterLastCrash(t *testing.T) {
	type crash struct {
		pid PID
		CrashStep
	}
	for _, n := range []int{4, 6, 7} {
		for _, l := range []int{1, 2, n} {
			for steps := 1; steps <= 6; steps++ {
				var grid [][]crash
				grid = append(grid, nil)
				for s1 := 1; s1 <= steps; s1++ {
					for _, p := range []float64{0.3, 0.5, 1} {
						grid = append(grid, []crash{{1, CrashStep{s1, p}}})
					}
					for s2 := s1; s2 <= steps; s2++ {
						grid = append(grid, []crash{{0, CrashStep{s1, 0.4}}, {PID(n - 1), CrashStep{s2, 0.6}}})
					}
				}
				for _, crashes := range grid {
					last := 0
					crashSteps := make(map[PID]CrashStep, len(crashes))
					for _, c := range crashes {
						last = max(last, c.Step)
						crashSteps[c.pid] = c.CrashStep
					}
					for seed := int64(1); seed <= 3; seed++ {
						res, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(n, l), CrashSteps: crashSteps, Steps: steps, Seed: seed})
						name := fmt.Sprintf("n=%d l=%d steps=%d crashes=%v seed=%d", n, l, steps, crashes, seed)
						if err != nil {
							if last < steps {
								t.Fatalf("%s: %v", name, err)
							}
							continue
						}
						if res.StabilizationStep > Time(last+1) {
							t.Fatalf("%s: stabilized at step %d, after step %d", name, res.StabilizationStep, last+1)
						}
					}
				}
			}
		}
	}
}

func TestIdentityConstructors(t *testing.T) {
	if got := BalancedIDs(6, 3).DistinctCount(); got != 3 {
		t.Errorf("BalancedIDs distinct = %d", got)
	}
	if got := DomainIDs(map[string]int{"x.org": 2}).N(); got != 2 {
		t.Errorf("DomainIDs N = %d", got)
	}
}

// TestValidateBeaters pins the beater count's range: 0 selects every
// process, 1..n that many, and anything else is rejected — more beaters
// than processes used to be silently clamped to all, hiding the typo that
// produced it.
func TestValidateBeaters(t *testing.T) {
	cases := []struct {
		beaters, n int
		wantErr    string // empty = valid
	}{
		{0, 5, ""}, // 0 = all n
		{1, 5, ""}, // boundary: minimum selective value
		{5, 5, ""}, // boundary: exactly n
		{6, 5, "beaters=6 exceeds n=5: at most every process can beat"},
		{-1, 5, "beaters=-1, want >= 0"},
	}
	for _, c := range cases {
		err := Experiment{Algo: "heartbeat", IDs: BalancedIDs(c.n, 1), Beaters: c.beaters}.Validate()
		if got := fmt.Sprint(err); (c.wantErr == "" && err != nil) || (c.wantErr != "" && got != c.wantErr) {
			t.Errorf("Validate with %d beaters of n=%d = %v, want %q", c.beaters, c.n, err, c.wantErr)
		}
	}
}

func TestRunnersRejectMalformedExperiments(t *testing.T) {
	tests := []struct {
		name string
		run  func() error
	}{
		{"fig8 t too large", func() error {
			_, err := Experiment{Algo: "fig8", IDs: ident.Unique(4), T: 2}.Run(0, nil)
			return err
		}},
		{"fig8 crash pid out of range", func() error {
			_, err := Experiment{Algo: "fig8", IDs: ident.Unique(3), T: 1, Crashes: map[PID]Time{9: 5}}.Run(0, nil)
			return err
		}},
		{"fig8 negative crash time", func() error {
			_, err := Experiment{Algo: "fig8", IDs: ident.Unique(3), T: 1, Crashes: map[PID]Time{0: -1}}.Run(0, nil)
			return err
		}},
		{"fig8 proposal count mismatch", func() error {
			_, err := Experiment{Algo: "fig8", IDs: ident.Unique(3), T: 1, Proposals: []Value{"a"}}.Run(0, nil)
			return err
		}},
		{"fig9 empty assignment", func() error {
			_, err := Experiment{Algo: "fig9"}.Run(0, nil)
			return err
		}},
		{"fig9 bottom proposed", func() error {
			_, err := Experiment{Algo: "fig9", IDs: ident.Unique(2), Proposals: []Value{"a", "\x00⊥"}}.Run(0, nil)
			return err
		}},
		{"ohp crash pid out of range", func() error {
			_, err := Experiment{Algo: "ohp", IDs: ident.Unique(3), Crashes: map[PID]Time{3: 5}}.Run(0, nil)
			return err
		}},
		{"heartbeat with crashes", func() error {
			_, err := Experiment{Algo: "heartbeat", IDs: ident.Unique(3), Crashes: map[PID]Time{1: 5}}.Run(0, nil)
			return err
		}},
		{"unknown algorithm", func() error {
			_, err := Experiment{Algo: "fig10", IDs: ident.Unique(3)}.Run(0, nil)
			return err
		}},
		{"hsigma empty assignment", func() error {
			_, err := RunHSigma(HSigmaExperiment{})
			return err
		}},
		{"hsigma crash pid out of range", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), CrashSteps: map[PID]CrashStep{9: {Step: 2, DeliverProb: 0.5}}})
			return err
		}},
		{"hsigma negative crash pid", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), CrashSteps: map[PID]CrashStep{-1: {Step: 2}}})
			return err
		}},
		{"hsigma negative crash step", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), CrashSteps: map[PID]CrashStep{1: {Step: -2}}})
			return err
		}},
		{"hsigma crash after the last step", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), Steps: 12, CrashSteps: map[PID]CrashStep{1: {Step: 30, DeliverProb: 0.5}}})
			return err
		}},
		{"hsigma crash at step zero", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), CrashSteps: map[PID]CrashStep{1: {Step: 0, DeliverProb: 0.5}}})
			return err
		}},
		{"hsigma negative step count", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), Steps: -1})
			return err
		}},
		{"hsigma delivery probability above one", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), CrashSteps: map[PID]CrashStep{1: {Step: 2, DeliverProb: 1.5}}})
			return err
		}},
		{"hsigma delivery probability NaN", func() error {
			_, err := RunHSigma(HSigmaExperiment{IDs: BalancedIDs(6, 3), CrashSteps: map[PID]CrashStep{1: {Step: 2, DeliverProb: math.NaN()}}})
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.run()
			if err == nil {
				t.Fatal("malformed experiment accepted")
			}
			if !strings.HasPrefix(err.Error(), "hds: ") {
				t.Errorf("error %q does not name the package that rejected the input", err)
			}
		})
	}
}

// TestRunRejectsOutOfRangeValues: a negative time or count and a
// non-finite churn fraction are rejected by Run itself, before any default
// replaces them, with the same words scenario.Validate uses.
func TestRunRejectsOutOfRangeValues(t *testing.T) {
	bad := []struct {
		name string
		set  func(*Experiment)
		want string
	}{
		{"horizon", func(e *Experiment) { e.Horizon = -5 }, "hds: horizon=-5, want >= 0"},
		{"period", func(e *Experiment) { e.Period = -3 }, "hds: period=-3, want >= 0"},
		{"stabilize", func(e *Experiment) { e.Stabilize = -10 }, "hds: stabilize=-10, want >= 0"},
		{"max-events", func(e *Experiment) { e.MaxEvents = -1 }, "hds: max-events=-1, want >= 0"},
		{"churn NaN", func(e *Experiment) { e.Churn = ChurnSpec{Fraction: math.NaN(), Cycles: 1} }, "hds: churn fraction NaN, want a finite value"},
		{"churn +Inf", func(e *Experiment) { e.Churn = ChurnSpec{Fraction: math.Inf(1), Cycles: 1} }, "hds: churn fraction +Inf, want a finite value"},
	}
	for _, algo := range []string{"fig8", "fig9", "fig9-anon", "ohp", "heartbeat"} {
		for _, b := range bad {
			t.Run(algo+"/"+b.name, func(t *testing.T) {
				e := Experiment{Algo: algo, IDs: BalancedIDs(5, 2), T: 2}
				b.set(&e)
				_, err := e.Run(1, nil)
				if err == nil || err.Error() != b.want {
					t.Errorf("Run: got error %v, want %q", err, b.want)
				}
			})
		}
	}
}

// TestCrashAtOrAfterHorizonRejected: a crash-stop crash the run never
// reaches is rejected, not written into the ground truth as if it had
// happened — by FaultSchedule, which FaultPattern and Experiment.Validate
// (and so every runner) build on.
func TestCrashAtOrAfterHorizonRejected(t *testing.T) {
	ids := BalancedIDs(5, 2)
	for _, at := range []Time{5000, 9000} {
		if _, _, err := FaultPattern(ids, ChurnSpec{}, map[PID]Time{1: at}, 5000); err == nil || !strings.Contains(err.Error(), "not before the horizon 5000") {
			t.Errorf("FaultPattern with a crash at t=%d, horizon 5000: got error %v, want the horizon rejection", at, err)
		}
	}
	if _, _, err := FaultPattern(ids, ChurnSpec{}, map[PID]Time{1: 4999}, 5000); err != nil {
		t.Errorf("FaultPattern with a crash at t=4999, horizon 5000: %v", err)
	}
	for _, e := range []Experiment{
		{Algo: "ohp", IDs: ids, Crashes: map[PID]Time{1: 9000}},
		{Algo: "fig8", IDs: ids, T: 2, Crashes: map[PID]Time{1: 9000}, Horizon: 5000},
		{Algo: "fig9", IDs: ids, Crashes: map[PID]Time{1: 5000}, Horizon: 5000},
	} {
		if _, err := e.Run(1, nil); err == nil || !strings.Contains(err.Error(), "not before the horizon 5000") {
			t.Errorf("%s with a crash past the horizon: got error %v, want the horizon rejection", e.Algo, err)
		}
	}
}
