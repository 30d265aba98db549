package fd

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// refTruth is the map-based ground truth the flat one replaced, kept as
// the oracle: outages grouped per process through a map, crash times in a
// second map, every accessor a scan of one of them. Its loops visit the
// maps in ascending key order, where the original ranged over them.
type refTruth struct {
	ids        ident.Assignment
	crashTimes map[sim.PID]sim.Time
	down       map[sim.PID][]Interval
}

func newRefTruth(ids ident.Assignment, evs []sim.ChurnEvent) *refTruth {
	byProc := make(map[sim.PID][]sim.ChurnEvent)
	for _, ev := range evs {
		byProc[ev.P] = append(byProc[ev.P], ev)
	}
	g := &refTruth{ids: ids, crashTimes: map[sim.PID]sim.Time{}, down: map[sim.PID][]Interval{}}
	for _, p := range slices.Sorted(maps.Keys(byProc)) {
		pevs := byProc[p]
		sort.SliceStable(pevs, func(i, j int) bool { return pevs[i].At < pevs[j].At })
		var ivs []Interval
		open := false
		for _, ev := range pevs {
			switch {
			case !ev.Recover && !open:
				ivs = append(ivs, Interval{From: ev.At, To: Forever})
				open = true
			case ev.Recover && open:
				ivs[len(ivs)-1].To = ev.At
				open = false
			}
		}
		if len(ivs) > 0 {
			g.down[p] = ivs
			g.crashTimes[p] = ivs[0].From
		}
	}
	return g
}

func (g *refTruth) isCorrect(p sim.PID) bool { return len(g.down[p]) == 0 }

func (g *refTruth) isEventuallyUp(p sim.PID) bool {
	ivs := g.down[p]
	return len(ivs) == 0 || ivs[len(ivs)-1].To != Forever
}

func (g *refTruth) downAt(p sim.PID, t sim.Time) bool {
	for _, iv := range g.down[p] {
		if iv.From <= t && t < iv.To {
			return true
		}
	}
	return false
}

func (g *refTruth) where(keep func(sim.PID) bool) []sim.PID {
	var out []sim.PID
	for p := 0; p < g.ids.N(); p++ {
		if keep(sim.PID(p)) {
			out = append(out, sim.PID(p))
		}
	}
	return out
}

func (g *refTruth) aliveCountAt(t sim.Time) int {
	n := g.ids.N()
	for _, p := range slices.Sorted(maps.Keys(g.down)) {
		if g.downAt(p, t) {
			n--
		}
	}
	return n
}

func (g *refTruth) lastChange(recoveries bool) sim.Time {
	var last sim.Time
	for _, p := range slices.Sorted(maps.Keys(g.down)) {
		for _, iv := range g.down[p] {
			last = max(last, iv.From)
			if recoveries && iv.To != Forever {
				last = max(last, iv.To)
			}
		}
	}
	return last
}

func (g *refTruth) euIDs() *multiset.Multiset[ident.ID] {
	m := multiset.New[ident.ID]()
	for _, p := range g.where(g.isEventuallyUp) {
		m.Add(g.ids[p])
	}
	return m
}

func (g *refTruth) expectedLeader() (LeaderInfo, bool) {
	m := g.euIDs()
	id, ok := m.Min()
	if !ok {
		return LeaderInfo{}, false
	}
	return LeaderInfo{ID: id, Multiplicity: m.Count(id)}, true
}

// diffTruth compares every accessor of g with the reference built from the
// same events, at every instant where an answer can change (each event
// time and its neighbours) and at the ends of time.
func diffTruth(g *GroundTruth, ref *refTruth, evs []sim.ChurnEvent) error {
	n := ref.ids.N()
	if got, want := g.Correct(), ref.where(ref.isCorrect); !slices.Equal(got, want) {
		return fmt.Errorf("Correct %v, reference %v", got, want)
	}
	if got, want := g.EventuallyUp(), ref.where(ref.isEventuallyUp); !slices.Equal(got, want) {
		return fmt.Errorf("EventuallyUp %v, reference %v", got, want)
	}
	if got, faulty := g.Faulty(), slices.Sorted(maps.Keys(ref.crashTimes)); !slices.Equal(got, faulty) {
		return fmt.Errorf("Faulty %v, reference %v", got, faulty)
	}
	for p := sim.PID(-1); p <= sim.PID(n); p++ {
		if got, want := g.Down(p), ref.down[p]; !slices.Equal(got, want) {
			return fmt.Errorf("Down(%d) %v, reference %v", p, got, want)
		}
		if got, want := g.IsCorrect(p), ref.isCorrect(p); got != want {
			return fmt.Errorf("IsCorrect(%d) %v, reference %v", p, got, want)
		}
		if got, want := g.IsEventuallyUp(p), ref.isEventuallyUp(p); got != want {
			return fmt.Errorf("IsEventuallyUp(%d) %v, reference %v", p, got, want)
		}
	}
	times := []sim.Time{0, Forever - 1}
	for _, ev := range evs {
		times = append(times, ev.At-1, ev.At, ev.At+1)
	}
	for _, t := range times {
		if got, want := g.AliveAt(t), ref.where(func(p sim.PID) bool { return !ref.downAt(p, t) }); !slices.Equal(got, want) {
			return fmt.Errorf("AliveAt(%d) %v, reference %v", t, got, want)
		}
		if got, want := g.AliveCountAt(t), ref.aliveCountAt(t); got != want {
			return fmt.Errorf("AliveCountAt(%d) %d, reference %d", t, got, want)
		}
	}
	if got, want := g.LastChange(), ref.lastChange(true); got != want {
		return fmt.Errorf("LastChange %d, reference %d", got, want)
	}
	if got, want := g.LastCrashTime(), ref.lastChange(false); got != want {
		return fmt.Errorf("LastCrashTime %d, reference %d", got, want)
	}
	gotL, gotOK := g.ExpectedLeader()
	wantL, wantOK := ref.expectedLeader()
	if gotL != wantL || gotOK != wantOK {
		return fmt.Errorf("ExpectedLeader %v,%v, reference %v,%v", gotL, gotOK, wantL, wantOK)
	}
	if got, want := g.EventuallyUpIDs(), ref.euIDs(); !got.Equal(want) {
		return fmt.Errorf("EventuallyUpIDs %v, reference %v", got, want)
	}
	return nil
}

// TestTruthMatchesReference holds the flat ground truth to the map-based
// reference on every accessor: over hand-built edge cases, over seeded
// ChurnSpec schedules plus crash-stop crashes on other processes, and over
// the same schedules shuffled (the builders take events in any order).
// The crash-only constructor is checked through the same reference.
func TestTruthMatchesReference(t *testing.T) {
	type tc struct {
		name string
		ids  ident.Assignment
		evs  []sim.ChurnEvent
	}
	cases := []tc{
		{"no faults", ident.Balanced(5, 2), nil},
		{"recover of an up process", ident.Unique(3), []sim.ChurnEvent{{P: 1, At: 5, Recover: true}, {P: 1, At: 9}}},
		{"consecutive crashes", ident.Unique(3), []sim.ChurnEvent{{P: 2, At: 5}, {P: 2, At: 8}, {P: 2, At: 12, Recover: true}, {P: 2, At: 14, Recover: true}}},
		{"crash and recover at one instant", ident.Balanced(4, 2), []sim.ChurnEvent{{P: 1, At: 10}, {P: 1, At: 10, Recover: true}}},
		{"recover listed before its crash", ident.Balanced(4, 2), []sim.ChurnEvent{{P: 0, At: 10, Recover: true}, {P: 0, At: 10}}},
		{"per-process events out of order", ident.Balanced(6, 3), []sim.ChurnEvent{
			{P: 4, At: 40}, {P: 1, At: 30, Recover: true}, {P: 4, At: 20, Recover: true}, {P: 1, At: 10}, {P: 4, At: 5}, {P: 3, At: 7},
		}},
		{"n=1 crashed", ident.Unique(1), []sim.ChurnEvent{{P: 0, At: 3}}},
		{"n=1 recovered", ident.AnonymousN(1), []sim.ChurnEvent{{P: 0, At: 3}, {P: 0, At: 6, Recover: true}}},
		{"every process final-down", ident.Balanced(5, 2), sim.ChurnSpec{Fraction: 1, Cycles: 2, Stagger: 3, FinalDown: true}.Events(5)},
		{"leader group shrinks", ident.Assignment{"B", "A", "A", "C"}, []sim.ChurnEvent{{P: 1, At: 4}, {P: 2, At: 6}, {P: 2, At: 9, Recover: true}}},
	}
	r := rand.New(rand.NewSource(54))
	for i := 0; i < 300; i++ {
		n := 1 + r.Intn(40)
		spec := sim.ChurnSpec{
			Fraction: r.Float64(), Cycles: r.Intn(4), Start: sim.Time(r.Intn(30)),
			Down: sim.Time(r.Intn(25)), Up: sim.Time(r.Intn(25)), Stagger: sim.Time(r.Intn(8)), FinalDown: r.Intn(3) == 0,
		}
		evs := spec.Events(n)
		churned := map[sim.PID]bool{}
		for _, ev := range evs {
			churned[ev.P] = true
		}
		for p := 0; p < n; p++ {
			if !churned[sim.PID(p)] && r.Intn(5) == 0 {
				evs = append(evs, sim.ChurnEvent{P: sim.PID(p), At: sim.Time(r.Intn(200))})
			}
		}
		ids := ident.Balanced(n, 1+r.Intn(n))
		cases = append(cases, tc{fmt.Sprintf("seeded %d", i), ids, evs})
		shuffled := slices.Clone(evs)
		r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		cases = append(cases, tc{fmt.Sprintf("seeded %d shuffled", i), ids, shuffled})
	}
	for _, c := range cases {
		before := slices.Clone(c.evs)
		if err := diffTruth(NewGroundTruthFromChurn(c.ids, c.evs), newRefTruth(c.ids, c.evs), c.evs); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !slices.Equal(before, c.evs) {
			t.Errorf("%s: the builder reordered its caller's events", c.name)
		}
		crashes := map[sim.PID]sim.Time{}
		var crashEvs []sim.ChurnEvent
		for _, ev := range c.evs {
			if _, seen := crashes[ev.P]; !seen && !ev.Recover {
				crashes[ev.P] = ev.At
				crashEvs = append(crashEvs, ev)
			}
		}
		if err := diffTruth(NewGroundTruth(c.ids, crashes), newRefTruth(c.ids, crashEvs), crashEvs); err != nil {
			t.Errorf("%s, crash-stop: %v", c.name, err)
		}
	}
}
