package hunt

import (
	"math/rand"
	"sort"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/sim"
)

// Mutation bounds. The fuzzer explores small populations on purpose:
// every interesting quorum/leader-group interaction already exists at
// n <= 10, and small scenarios execute orders of magnitude faster, so the
// budget buys breadth instead of fan-out.
const (
	minN       = 3
	maxN       = 10
	maxWindows = 3
	maxCrashes = 4
)

// netPalette is the mutator's network menu: every ParseNet spec family,
// including the first-class loss and (via window mutations) partition
// models this PR promoted. Specs, not Models, so scenarios stay JSON.
var netPalette = []string{
	"", // runner default
	"async:4",
	"async:12",
	"psync:30:3",
	"psync:60:2",
	"timely:2",
	"pareto:1.2:40",
	"lognormal:1:40",
	"alt:15:3:20:0.25:45",
	"asym:5:6",
	"lossy:0.2",
	"lossy:0.4:6",
	"lossy:0.6:10",
}

var adversaryPalette = []string{"none", "rotate", "split"}

// Mutate returns a sanitized single-step mutant of s. All randomness
// comes from r, drawn in a fixed order, so the mutant stream is a pure
// function of (s, r's state) — the campaign-level determinism contract
// builds on exactly this.
func Mutate(s Scenario, r *rand.Rand) Scenario {
	m := s.Clone()
	switch r.Intn(17) {
	case 0: // reseed: same structure, different execution
		m.Seed = m.Seed + 1 + int64(r.Intn(16))
	case 1: // population
		m.N = minN + r.Intn(maxN-minN+1)
	case 2: // homonymy degree
		m.L = 1 + r.Intn(maxN)
	case 3: // switch algorithm
		m.Kind = Kinds[r.Intn(len(Kinds))]
	case 4: // churn fraction (0 disables churn)
		m.Churn.Fraction = []float64{0, 0.17, 0.34, 0.5, 0.67}[r.Intn(5)]
	case 5: // churn phase geometry
		m.Churn.Start = sim.Time(1 + r.Intn(60))
		m.Churn.Down = sim.Time(5 + r.Intn(80))
	case 6: // churn overlap structure
		m.Churn.Stagger = sim.Time(r.Intn(20))
		m.Churn.Up = sim.Time(5 + r.Intn(50))
	case 7: // churn repetition
		m.Churn.Cycles = 1 + r.Intn(3)
	case 8: // churn tail
		m.Churn.FinalDown = !m.Churn.FinalDown
	case 9: // add a crash-stop
		m.Crashes = append(m.Crashes, CrashEntry{
			P:  sim.PID(r.Intn(maxN)),
			At: sim.Time(1 + r.Intn(120)),
		})
	case 10: // drop a crash-stop
		if len(m.Crashes) > 0 {
			i := r.Intn(len(m.Crashes))
			m.Crashes = append(m.Crashes[:i], m.Crashes[i+1:]...)
		}
	case 11: // move a crash in time
		if len(m.Crashes) > 0 {
			m.Crashes[r.Intn(len(m.Crashes))].At = sim.Time(1 + r.Intn(120))
		}
	case 12: // network model
		m.Net = netPalette[r.Intn(len(netPalette))]
	case 13: // add a partition window
		from := sim.Time(r.Intn(80))
		m.Partitions = append(m.Partitions, sim.PartitionWindow{
			From: from,
			To:   from + sim.Time(5+r.Intn(40)),
			Cut:  sim.PID(1 + r.Intn(maxN-1)),
		})
	case 14: // drop or move a partition window
		if len(m.Partitions) == 0 {
			break
		}
		i := r.Intn(len(m.Partitions))
		if r.Intn(2) == 0 {
			m.Partitions = append(m.Partitions[:i], m.Partitions[i+1:]...)
		} else {
			shift := sim.Time(r.Intn(40))
			m.Partitions[i].From += shift
			m.Partitions[i].To += shift
		}
	case 15: // oracle adversary
		m.Adversary = adversaryPalette[r.Intn(len(adversaryPalette))]
	case 16: // oracle stabilization time (0 = runner default)
		m.Stabilize = []sim.Time{0, 1, 10, 50, 120}[r.Intn(5)]
	}
	return Sanitize(m)
}

// Sanitize clamps a scenario back into the runners' admissible space, so
// every mutant is runnable and every runner rejection left reachable is a
// genuine validation gap rather than fuzzer noise. It is idempotent and
// deterministic, and the structured seeds pass through it too — one
// definition of "admissible" for the whole package.
//
// The liveness-critical rule: permanently crashed processes (crash-stops
// plus final-down churners) stay strictly below n/2 for every kind. The
// consensus algorithms' termination and the detectors' leader liveness
// are only promised over a live majority; scenarios violating that would
// "fail" checkers without witnessing any bug.
func Sanitize(s Scenario) Scenario {
	s = s.Clone()
	// Kind and counts first — everything else depends on them.
	if !kindKnown(s.Kind) {
		s.Kind = "fig9"
	}
	s.N = clampInt(s.N, minN, maxN)
	s.L = clampInt(s.L, 1, s.N)

	// Churn geometry: keep every field in the generator's meaningful
	// range (its defaults() would repair zeros, but negative values and
	// absurd magnitudes shouldn't reach it).
	if s.Churn.Fraction < 0 {
		s.Churn.Fraction = 0
	}
	if s.Churn.Fraction > 0 {
		if s.Churn.Fraction > 0.67 {
			s.Churn.Fraction = 0.67
		}
		s.Churn.Start = sim.Time(clampInt(int(s.Churn.Start), 1, 200))
		s.Churn.Down = sim.Time(clampInt(int(s.Churn.Down), 1, 200))
		s.Churn.Up = sim.Time(clampInt(int(s.Churn.Up), 1, 200))
		s.Churn.Cycles = clampInt(s.Churn.Cycles, 1, 3)
		s.Churn.Stagger = sim.Time(clampInt(int(s.Churn.Stagger), 0, 50))
	} else {
		s.Churn = sim.ChurnSpec{}
	}

	// Crashes: in-range PIDs, positive times, no churn overlap, unique,
	// sorted — the canonical slice form Validate demands.
	churners := map[sim.PID]bool{}
	for _, p := range s.Churn.Churners(s.N) {
		churners[p] = true
	}
	seen := map[sim.PID]bool{}
	kept := s.Crashes[:0]
	for _, c := range s.Crashes {
		if c.P < 0 || int(c.P) >= s.N || churners[c.P] || seen[c.P] {
			continue
		}
		if c.At < 1 {
			c.At = 1
		}
		seen[c.P] = true
		kept = append(kept, c)
	}
	if len(kept) > maxCrashes {
		kept = kept[:maxCrashes]
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].P != kept[j].P {
			return kept[i].P < kept[j].P
		}
		return kept[i].At < kept[j].At
	})
	s.Crashes = kept

	// The live-majority rule: cap permanent crashes below n/2.
	permBudget := (s.N - 1) / 2
	perm := len(s.Crashes)
	if s.Churn.FinalDown {
		perm += len(s.Churn.Churners(s.N))
	}
	if perm > permBudget {
		if s.Churn.FinalDown {
			s.Churn.FinalDown = false
			perm = len(s.Crashes)
		}
		if perm > permBudget {
			s.Crashes = s.Crashes[:permBudget]
		}
	}

	// Kind-specific repairs.
	switch s.Kind {
	case "fig8":
		// Every fault — churner or crash-stop — spends the t budget.
		faults := len(s.Crashes) + len(s.Churn.Churners(s.N))
		maxT := (s.N - 1) / 2
		if faults > maxT {
			// Shed crash-stops first, then churn, until the budget fits.
			for len(s.Crashes) > 0 && faults > maxT {
				s.Crashes = s.Crashes[:len(s.Crashes)-1]
				faults--
			}
			if faults > maxT {
				s.Churn = sim.ChurnSpec{}
				faults = len(s.Crashes)
			}
		}
		s.T = clampInt(s.T, faults, maxT)
	case "ohp":
		// The detector scenario takes one fault mechanism: the resolver
		// rejects crash-stops next to a churn spec.
		if s.Churn.Fraction > 0 {
			s.Crashes = nil
		}
		s.Stabilize, s.Adversary = 0, ""
	case "heartbeat":
		// The heartbeat runner has no crash-stop schedule or oracle.
		s.Crashes = nil
		s.Stabilize, s.Adversary = 0, ""
		if s.Period < 0 {
			s.Period = 0
		}
	}

	// An unparseable network spec would only breed dead mutants; fall
	// back to the runner default.
	if s.Net != "" {
		if _, err := cliutil.ParseNet(s.Net); err != nil {
			s.Net = ""
		}
	}

	// Partition windows: positive spans, cuts that split [0, n), at most
	// maxWindows, sorted into canonical order.
	pkept := s.Partitions[:0]
	for _, w := range s.Partitions {
		if w.From < 0 || w.To <= w.From || w.Cut < 1 || int(w.Cut) >= s.N {
			continue
		}
		pkept = append(pkept, w)
	}
	if len(pkept) > maxWindows {
		pkept = pkept[:maxWindows]
	}
	sort.SliceStable(pkept, func(i, j int) bool {
		if pkept[i].From != pkept[j].From {
			return pkept[i].From < pkept[j].From
		}
		if pkept[i].To != pkept[j].To {
			return pkept[i].To < pkept[j].To
		}
		return pkept[i].Cut < pkept[j].Cut
	})
	s.Partitions = pkept

	// Horizon: an explicit horizon must clear the full schedule (fault
	// events and partition heals). The consensus and ohp defaults (1e6 and
	// 5000) always do; heartbeat's default is only ten beat periods, so a
	// scheduled heartbeat scenario gets an explicit horizon.
	if s.Horizon != 0 {
		if last := s.lastScheduleEvent(); s.Horizon <= last+1 {
			s.Horizon = last + 200
		}
	}
	if s.Kind == "heartbeat" && s.Horizon == 0 {
		d := hds.Experiment{Algo: "heartbeat", Period: s.Period}.WithDefaults()
		if last := s.lastScheduleEvent(); last+1 >= d.Horizon {
			s.Horizon = last + 2*d.Horizon
		}
	}
	if s.Seed < 0 {
		s.Seed = -s.Seed
	}
	// Canonical empty form is nil, so sanitized scenarios compare equal
	// (and marshal identically) regardless of how their slices were built.
	if len(s.Crashes) == 0 {
		s.Crashes = nil
	}
	if len(s.Partitions) == 0 {
		s.Partitions = nil
	}
	s.MaxEvents = 0 // a tight cap fakes guard findings; see Scenario.MaxEvents
	return s
}

func kindKnown(k string) bool {
	for _, known := range Kinds {
		if k == known {
			return true
		}
	}
	return false
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
