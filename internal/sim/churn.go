package sim

import "fmt"

// ChurnEvent is one entry of a crash-recovery schedule: process P crashes
// (Recover=false) or recovers (Recover=true) at time At. Schedules are
// plain data so the same slice drives both the engine (ApplyChurn) and the
// ground truth (fd.NewGroundTruthFromChurn).
type ChurnEvent struct {
	P       PID
	At      Time
	Recover bool
}

// ChurnSpec generates deterministic crash-recovery churn: a fraction of
// the processes cycle down and up with configurable down-time. The
// schedule is a pure function of the spec and n — no randomness — so churn
// scenarios compose with the engine's seeded determinism and sweep
// byte-identically across worker counts.
type ChurnSpec struct {
	// Fraction of processes that churn (rounded to nearest, at least one
	// when > 0). Churners are spread evenly over the index space, so
	// homonymy groups (which Balanced assigns contiguously) all feel churn.
	Fraction float64
	// Start is the first crash time (default 20).
	Start Time
	// Down is how long each outage lasts (default 20).
	Down Time
	// Up is how long a churner stays up between recovery and its next
	// crash (default 30).
	Up Time
	// Cycles is the number of crash→recover cycles per churner (default 1).
	Cycles int
	// Stagger offsets successive churners' schedules so outages overlap
	// partially rather than aligning. Zero keeps all churners in phase.
	Stagger Time
	// FinalDown, when set, leaves each churner crashed after its last
	// cycle (no final recovery): churn degenerating into crash-stop.
	FinalDown bool
}

func (s ChurnSpec) defaults() ChurnSpec {
	if s.Start <= 0 {
		s.Start = 20
	}
	if s.Down <= 0 {
		s.Down = 20
	}
	if s.Up <= 0 {
		s.Up = 30
	}
	if s.Cycles <= 0 {
		s.Cycles = 1
	}
	if s.Stagger < 0 {
		s.Stagger = 0
	}
	return s
}

// Churners returns the process indexes that churn under this spec in a
// system of n processes.
func (s ChurnSpec) Churners(n int) []PID {
	if n <= 0 || s.Fraction <= 0 {
		return nil
	}
	k := int(s.Fraction*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]PID, 0, k)
	for i := 0; i < k; i++ {
		// Spread churners evenly over [0, n).
		out = append(out, PID(i*n/k))
	}
	return out
}

// Events expands the spec into the full crash/recover schedule for a
// system of n processes, one churner's events after another's (ordered by
// process, then time; consumers — ApplyChurn, the ground truth — are
// order-insensitive).
func (s ChurnSpec) Events(n int) []ChurnEvent {
	s = s.defaults()
	churners := s.Churners(n)
	if len(churners) == 0 {
		return nil
	}
	evs := make([]ChurnEvent, 0, 2*s.Cycles*len(churners))
	for i, p := range churners {
		at := s.Start + Time(i)*s.Stagger
		for c := 0; c < s.Cycles; c++ {
			evs = append(evs, ChurnEvent{P: p, At: at})
			at += s.Down
			if s.FinalDown && c == s.Cycles-1 {
				break
			}
			evs = append(evs, ChurnEvent{P: p, At: at, Recover: true})
			at += s.Up
		}
	}
	return evs
}

// String describes the spec for logs and experiment tables.
func (s ChurnSpec) String() string {
	d := s.defaults()
	tail := ""
	if d.FinalDown {
		tail = " final-down"
	}
	return fmt.Sprintf("churn[%.0f%% ×%d down=%d up=%d%s]", d.Fraction*100, d.Cycles, d.Down, d.Up, tail)
}

// ApplyChurn schedules every event of a churn schedule on the engine.
func (e *Engine) ApplyChurn(evs []ChurnEvent) {
	for _, ev := range evs {
		if ev.Recover {
			e.RecoverAt(ev.P, ev.At)
		} else {
			e.CrashAt(ev.P, ev.At)
		}
	}
}
