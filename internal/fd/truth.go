package fd

import (
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// Forever marks a down interval that never ends (a crash-stop crash).
const Forever = sim.Time(math.MaxInt64)

// Interval is one outage [From, To): the process is down at exactly the
// times t with From <= t < To. To = Forever means the process never
// recovers.
type Interval struct {
	From, To sim.Time
}

// GroundTruth is the omniscient view of one execution's fault pattern,
// available to checkers and oracles but never to algorithms. The pattern
// is a set of down intervals per process; crash-stop is the special case
// where every interval extends to Forever.
//
// Two process sets derive from the pattern:
//
//   - Correct: processes that never crash ("correct = never crashes", the
//     paper's crash-stop reading). Consensus Termination quantifies over
//     this set.
//   - EventuallyUp: processes that are up from some point on — Correct
//     plus the churners whose last outage ends. Failure-detector class
//     properties under crash-recovery are stated relative to this set (a
//     detector can only converge to what is eventually permanently up);
//     in crash-stop executions it equals Correct.
//
// The outages are held by the faulty processes alone, in ascending PID
// order: faulty[i]'s intervals are down[first[i]:first[i+1]]. A run of
// n = 50,000 with no crash keeps no per-process index, and the O(faulty)
// queries (AliveCountAt, LastChange, LastCrashTime) walk flat slices.
//
// The fault pattern is fixed for the whole execution, so the derived views
// are computed once and shared: callers must treat the returned slices and
// multisets as read-only.
type GroundTruth struct {
	IDs ident.Assignment

	faulty []sim.PID
	first  []int
	down   []Interval

	correct      []sim.PID
	eventuallyUp []sim.PID
	euIDs        *multiset.Multiset[ident.ID]
	leader       LeaderInfo
	leaderOK     bool
}

// NewGroundTruth builds a crash-stop ground truth for the assignment with
// the given crash schedule: every crash is final. It is
// NewGroundTruthFromChurn's case with no recover events.
func NewGroundTruth(ids ident.Assignment, crashTimes map[sim.PID]sim.Time) *GroundTruth {
	evs := make([]sim.ChurnEvent, 0, len(crashTimes))
	for _, p := range slices.Sorted(maps.Keys(crashTimes)) {
		evs = append(evs, sim.ChurnEvent{P: p, At: crashTimes[p]})
	}
	return NewGroundTruthFromChurn(ids, evs)
}

// NewGroundTruthFromChurn builds a crash-recovery ground truth from the
// same schedule the engine executes (sim.ChurnSpec.Events, or a hand-built
// slice of crash/recover entries, in any order; evs is not modified). A
// recover entry for an up process is ignored and consecutive crashes
// merge, mirroring the engine's semantics. Its cost is O(n) plus a sort
// of the events.
func NewGroundTruthFromChurn(ids ident.Assignment, evs []sim.ChurnEvent) *GroundTruth {
	evs = slices.Clone(evs)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].P != evs[j].P {
			return evs[i].P < evs[j].P
		}
		return evs[i].At < evs[j].At
	})
	g := &GroundTruth{IDs: ids, first: []int{0}}
	for i := 0; i < len(evs); {
		p, from, open := evs[i].P, len(g.down), false
		for ; i < len(evs) && evs[i].P == p; i++ {
			switch ev := evs[i]; {
			case !ev.Recover && !open:
				g.down = append(g.down, Interval{From: ev.At, To: Forever})
				open = true
			case ev.Recover && open:
				g.down[len(g.down)-1].To = ev.At
				open = false
			}
		}
		// A recover at the same instant as the crash leaves a zero-length
		// interval [t, t). It is kept: the crash DID happen (the engine's
		// sticky everCrashed excludes the process from CorrectSet, and so
		// must the truth), even though no AliveAt sample can observe the
		// outage (From <= t < To never holds for an empty interval).
		if len(g.down) > from {
			g.faulty = append(g.faulty, p)
			g.first = append(g.first, len(g.down))
		}
	}
	g.derive()
	return g
}

// derive precomputes the execution-constant views; it runs once from the
// constructors. The expected leader is the smallest eventually-up
// identifier, found by a scan in PID order.
func (g *GroundTruth) derive() {
	n := g.IDs.N()
	g.correct, g.eventuallyUp = nil, nil
	j := 0 // the first faulty process not below p
	for p := 0; p < n; p++ {
		for j < len(g.faulty) && g.faulty[j] < sim.PID(p) {
			j++
		}
		if j == len(g.faulty) || g.faulty[j] != sim.PID(p) {
			g.correct = appendPID(g.correct, p, n)
			g.eventuallyUp = appendPID(g.eventuallyUp, p, n)
		} else if g.down[g.first[j+1]-1].To != Forever {
			g.eventuallyUp = appendPID(g.eventuallyUp, p, n)
		}
	}
	g.euIDs = multiset.New[ident.ID]()
	g.leader, g.leaderOK = LeaderInfo{}, false
	for _, p := range g.eventuallyUp {
		id := g.IDs[p]
		g.euIDs.Add(id)
		switch {
		case !g.leaderOK || id < g.leader.ID:
			g.leader, g.leaderOK = LeaderInfo{ID: id, Multiplicity: 1}, true
		case id == g.leader.ID:
			g.leader.Multiplicity++
		}
	}
}

// appendPID appends process p of n to s. Nearly every process is correct
// and eventually up, so s is allocated once, at its first element, with
// room for all the processes from p on, as sim.Engine.pidsWhere does —
// grown by doubling, the two slices of a 50,000-process run allocate 3.6 MB
// to keep 0.8 MB.
func appendPID(s []sim.PID, p, n int) []sim.PID {
	if s == nil {
		s = make([]sim.PID, 0, n-p)
	}
	return append(s, sim.PID(p))
}

// Correct returns the indexes of processes that never crash. The slice is
// shared; callers must not mutate it.
func (g *GroundTruth) Correct() []sim.PID {
	if len(g.correct) == 0 {
		return nil
	}
	return g.correct
}

// EventuallyUp returns the indexes of processes that are up from some
// point on (Correct plus recovered churners). The slice is shared; callers
// must not mutate it.
func (g *GroundTruth) EventuallyUp() []sim.PID {
	if len(g.eventuallyUp) == 0 {
		return nil
	}
	return g.eventuallyUp
}

// Faulty returns the indexes of processes that crash at least once,
// recovered or not, in ascending order. The slice is shared; callers must
// not mutate it.
func (g *GroundTruth) Faulty() []sim.PID { return g.faulty }

// Down returns p's outage intervals, sorted by From; nil when p never
// crashes. The slice is shared; callers must not mutate it.
func (g *GroundTruth) Down(p sim.PID) []Interval {
	i, ok := slices.BinarySearch(g.faulty, p)
	if !ok {
		return nil
	}
	return g.down[g.first[i]:g.first[i+1]:g.first[i+1]]
}

// IsCorrect reports whether p never crashes in this execution.
func (g *GroundTruth) IsCorrect(p sim.PID) bool {
	return len(g.Down(p)) == 0
}

// IsEventuallyUp reports whether p is up from some point on.
func (g *GroundTruth) IsEventuallyUp(p sim.PID) bool {
	ivs := g.Down(p)
	return len(ivs) == 0 || ivs[len(ivs)-1].To != Forever
}

// downIn reports whether one of ivs holds time t. A process crashing at t
// is down at exactly t (matching the simulator, which processes crashes
// before deliveries at equal times only by sequence order — checkers use
// it with ±1 slack); a process recovering at t is up at t.
func downIn(ivs []Interval, t sim.Time) bool {
	for _, iv := range ivs {
		if iv.From <= t && t < iv.To {
			return true
		}
	}
	return false
}

// AliveAt returns the processes alive at time t.
func (g *GroundTruth) AliveAt(t sim.Time) []sim.PID {
	var out []sim.PID
	for p := 0; p < g.IDs.N(); p++ {
		if !downIn(g.Down(sim.PID(p)), t) {
			out = append(out, sim.PID(p))
		}
	}
	return out
}

// AliveCountAt returns |AliveAt(t)| without building the slice.
func (g *GroundTruth) AliveCountAt(t sim.Time) int {
	n := g.IDs.N()
	for i := range g.faulty {
		if downIn(g.down[g.first[i]:g.first[i+1]], t) {
			n--
		}
	}
	return n
}

// EventuallyUpIDs returns I(EventuallyUp) as a multiset — the target every
// heartbeat-driven detector converges to under churn. The multiset is
// shared; callers must not mutate it.
func (g *GroundTruth) EventuallyUpIDs() *multiset.Multiset[ident.ID] {
	return g.euIDs
}

// LastCrashTime returns the time of the last crash (0 if none).
func (g *GroundTruth) LastCrashTime() sim.Time {
	var last sim.Time
	for _, iv := range g.down {
		last = max(last, iv.From)
	}
	return last
}

// LastChange returns the time of the last fault-pattern change — the final
// crash or recovery (0 if none). Detector outputs cannot stabilize before
// it; churn checkers use it as the re-stabilization baseline.
func (g *GroundTruth) LastChange() sim.Time {
	var last sim.Time
	for _, iv := range g.down {
		last = max(last, iv.From)
		if iv.To != Forever {
			last = max(last, iv.To)
		}
	}
	return last
}

// ExpectedLeader returns the stabilized HΩ output this repository's
// detectors converge to: the smallest identifier among eventually-up
// processes (= correct processes in crash-stop), with its multiplicity in
// I(EventuallyUp). ok is false when no process is eventually up.
func (g *GroundTruth) ExpectedLeader() (LeaderInfo, bool) {
	return g.leader, g.leaderOK
}
