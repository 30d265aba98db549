package hds

import (
	"strings"
	"testing"

	"repro/internal/fd/oracle"
)

func TestRunChurnFig8Oracle(t *testing.T) {
	res, err := Experiment{
		Algo:      "fig8",
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Churn:     ChurnSpec{Fraction: 0.3, Cycles: 1, Start: 2, Down: 60},
		Net:       Async{MaxDelay: 8},
		Adversary: oracle.AdversaryRotate,
	}.Run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 5 {
		t.Errorf("EventuallyUp = %d, want 5 (every churner recovers)", res.EventuallyUp)
	}
	if res.Correct >= 5 {
		t.Errorf("Correct = %d, want < 5 (churners are not strictly correct)", res.Correct)
	}
	if res.Recoveries == 0 {
		t.Error("scenario exercised no recoveries")
	}
	if res.Report.Deciders < res.EventuallyUp {
		t.Errorf("deciders = %d, want ≥ %d (every eventually-up process decides)", res.Report.Deciders, res.EventuallyUp)
	}
	if res.Report.Value == "" {
		t.Error("no decision value")
	}
}

func TestRunChurnFig8MessagePassing(t *testing.T) {
	res, err := Experiment{
		Algo:      "fig8",
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Churn:     ChurnSpec{Fraction: 0.3, Cycles: 2, Start: 3, Down: 40, Up: 50, Stagger: 7},
		Net:       PartialSync{Delta: 3},
		Detectors: MessagePassingDetectors,
		Horizon:   2_000_000,
	}.Run(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Deciders < 5 {
		t.Errorf("deciders = %d, want 5 (full stack, every process eventually up)", res.Report.Deciders)
	}
	if res.Recoveries == 0 {
		t.Error("scenario exercised no recoveries")
	}
}

func TestRunChurnFig9(t *testing.T) {
	res, err := Experiment{
		Algo:      "fig9",
		IDs:       BalancedIDs(6, 3),
		Churn:     ChurnSpec{Fraction: 0.34, Cycles: 1, Start: 2, Down: 60, Stagger: 7},
		Net:       Async{MaxDelay: 8},
		Adversary: oracle.AdversaryRotate,
	}.Run(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 6 || res.Report.Deciders < 6 {
		t.Errorf("EventuallyUp/deciders = %d/%d, want 6/6", res.EventuallyUp, res.Report.Deciders)
	}
	if res.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2", res.Recoveries)
	}
}

func TestRunChurnFig9FinalDown(t *testing.T) {
	// Final-down churners degrade churn to crash-stop for them: Termination
	// quantifies over the strictly smaller eventually-up set, which must
	// still decide.
	res, err := Experiment{
		Algo:  "fig9",
		IDs:   BalancedIDs(6, 3),
		Churn: ChurnSpec{Fraction: 0.34, Cycles: 2, Start: 25, Down: 30, Up: 40, FinalDown: true},
	}.Run(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 4 || res.Correct != 4 {
		t.Errorf("EventuallyUp/Correct = %d/%d, want 4/4", res.EventuallyUp, res.Correct)
	}
	if res.Report.Deciders < 4 {
		t.Errorf("deciders = %d, want ≥ 4", res.Report.Deciders)
	}
}

func TestRunChurnFig9Anonymous(t *testing.T) {
	if _, err := (Experiment{
		Algo:  "fig9-anon",
		IDs:   AnonymousIDs(5),
		Churn: ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 35},
	}).Run(5, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunChurnFig8WithExtraCrashes(t *testing.T) {
	// Churn plus a disjoint permanent crash: t=2 budget covers one churner
	// and one crash-stop process; the crash-stop one is exempt from
	// Termination, the churner is not.
	res, err := Experiment{
		Algo:    "fig8",
		IDs:     BalancedIDs(5, 2),
		T:       2,
		Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
		Crashes: map[PID]Time{3: 35},
	}.Run(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 4 {
		t.Errorf("EventuallyUp = %d, want 4", res.EventuallyUp)
	}
}

func TestChurnConsensusRunnersRejectMalformedExperiments(t *testing.T) {
	tests := []struct {
		name string
		want string
		run  func() error
	}{
		{"fig8 horizon truncates churn", "horizon", func() error {
			_, err := Experiment{
				Algo: "fig8", IDs: BalancedIDs(5, 2), T: 2,
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
				Horizon: 50,
			}.Run(0, nil)
			return err
		}},
		{"fig8 permanent crash past horizon", "horizon", func() error {
			// The horizon check covers the merged schedule: a Crashes entry
			// the run would never execute must be rejected, not silently
			// folded into the ground truth as a crash that "happened".
			_, err := Experiment{
				Algo: "fig8", IDs: BalancedIDs(5, 2), T: 2,
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
				Crashes: map[PID]Time{3: 2_000_000}, // default horizon is 1e6
			}.Run(0, nil)
			return err
		}},
		{"fig8 churn and crashes overlap", "both", func() error {
			_, err := Experiment{
				Algo: "fig8", IDs: BalancedIDs(5, 2), T: 2,
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
				Crashes: map[PID]Time{0: 30}, // PID 0 is the churner
			}.Run(0, nil)
			return err
		}},
		{"fig8 churners exceed t budget", "budget", func() error {
			_, err := Experiment{
				Algo: "fig8", IDs: BalancedIDs(5, 2), T: 1,
				Churn: ChurnSpec{Fraction: 0.5, Cycles: 1, Start: 25, Down: 40},
			}.Run(0, nil)
			return err
		}},
		{"fig8 t out of range", "t <", func() error {
			_, err := Experiment{
				Algo: "fig8", IDs: BalancedIDs(4, 2), T: 2,
				Churn: ChurnSpec{Fraction: 0.25, Cycles: 1, Start: 25, Down: 40},
			}.Run(0, nil)
			return err
		}},
		{"fig9 horizon truncates churn", "horizon", func() error {
			_, err := Experiment{
				Algo:    "fig9",
				IDs:     BalancedIDs(5, 2),
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 2, Start: 25, Down: 40, Up: 50},
				Horizon: 100,
			}.Run(0, nil)
			return err
		}},
		{"fig9 nobody eventually up", "eventually up", func() error {
			_, err := Experiment{
				Algo:  "fig9",
				IDs:   AnonymousIDs(3),
				Churn: ChurnSpec{Fraction: 1, Cycles: 1, Start: 25, Down: 30, FinalDown: true},
			}.Run(0, nil)
			return err
		}},
		{"fig9 invalid assignment", "identifier", func() error {
			_, err := Experiment{
				Algo:  "fig9",
				IDs:   Assignment{"a", ""},
				Churn: ChurnSpec{Fraction: 0.5, Cycles: 1, Start: 25, Down: 30},
			}.Run(0, nil)
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.run()
			if err == nil {
				t.Fatal("malformed experiment accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want mention of %q", err, tt.want)
			}
		})
	}
}

// TestChurnDetectorRunnersValidateInputs pins the satellite fix: the
// detector-layer churn runners validate their inputs like the consensus
// runners always did, instead of silently producing meaningless numbers.
func TestChurnDetectorRunnersValidateInputs(t *testing.T) {
	if _, err := (Experiment{
		Algo:  "ohp",
		IDs:   Assignment{"a", ""},
		Churn: ChurnSpec{Fraction: 0.5, Cycles: 1},
	}).Run(0, nil); err == nil || !strings.Contains(err.Error(), "identifier") {
		t.Errorf("invalid assignment accepted: %v", err)
	}
	if _, err := (Experiment{
		Algo:    "ohp",
		IDs:     BalancedIDs(8, 4),
		Churn:   ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 40, Up: 60},
		Horizon: 100, // last event at 170
	}).Run(0, nil); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("schedule-truncating horizon accepted: %v", err)
	}
	if _, err := (Experiment{
		Algo:  "heartbeat",
		IDs:   Assignment{},
		Churn: ChurnSpec{Fraction: 0.5},
	}).Run(0, nil); err == nil || !strings.Contains(err.Error(), "no processes") {
		t.Errorf("empty assignment accepted: %v", err)
	}
	if _, err := (Experiment{
		Algo:    "heartbeat",
		IDs:     BalancedIDs(10, 2),
		Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 50, Down: 30},
		Horizon: 60, // recovery at 80 is past the horizon
	}).Run(0, nil); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("schedule-truncating horizon accepted: %v", err)
	}
}
