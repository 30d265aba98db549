package sim

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/trace"
)

// fanPoll broadcasts every `period` units forever and re-arms after a
// recovery, so churn schedules keep traffic flowing.
type fanPoll struct {
	env    Environment
	period Time
}

func (p *fanPoll) Init(env Environment) {
	p.env = env
	env.Broadcast(hello{From: env.ID()})
	env.SetTimer(p.period, 0)
}
func (p *fanPoll) OnMessage(any) {}
func (p *fanPoll) OnTimer(tag int) {
	p.env.Broadcast(hello{From: p.env.ID()})
	p.env.SetTimer(p.period, tag)
}
func (p *fanPoll) OnRecover() { p.env.SetTimer(p.period, 0) }

// buildFanEngine assembles one churn-heavy engine: n pollsters, a crash
// with recovery, a crash-stop, and a partial (mid-broadcast) crash, over
// the given network model.
func buildFanEngine(n int, net Model, seed int64, eager bool, maxEvents int) (*Engine, *trace.Recorder) {
	rec := trace.NewRecorder()
	eng := New(Config{
		IDs:         ident.Balanced(n, 2),
		Net:         net,
		Seed:        seed,
		Recorder:    rec,
		EagerFanout: eager,
		MaxEvents:   maxEvents,
	})
	for i := 0; i < n; i++ {
		eng.AddProcess(&fanPoll{period: 5})
	}
	eng.CrashAt(1, 12)
	eng.RecoverAt(1, 31)
	eng.CrashAt(2, 40)
	eng.CrashDuringBroadcast(3, 20, 0.5)
	return eng, rec
}

// fanRun is one finished run of a fan-out differential.
type fanRun struct {
	mode string
	eng  *Engine
	rec  *trace.Recorder
}

// runModes runs the same scenario through the three expansions that must
// agree — the eager oracle, the lazy path with fate tables, and the lazy
// path with the table budget forced to zero so every wave rescans — each
// driven by the same Run calls.
func runModes(n int, net Model, seed int64, maxEvents int, drive func(e *Engine)) []fanRun {
	runs := []fanRun{{mode: "eager"}, {mode: "tabled"}, {mode: "rescan"}}
	for i := range runs {
		r := &runs[i]
		r.eng, r.rec = buildFanEngine(n, net, seed, r.mode == "eager", maxEvents)
		if r.mode == "rescan" {
			r.eng.fateBudget = 0
		}
		drive(r.eng)
	}
	return runs
}

// requireIdentical asserts that every run is byte-identical in trace to the
// first and equal to it in every observable the engine exposes.
func requireIdentical(t *testing.T, runs []fanRun) {
	t.Helper()
	render := func(r fanRun) []byte {
		var b bytes.Buffer
		if err := trace.WriteText(&b, r.rec.Events()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	want := runs[0]
	wantTrace := render(want)
	for _, got := range runs[1:] {
		if gotTrace := render(got); !bytes.Equal(gotTrace, wantTrace) {
			i := 0
			for i < len(gotTrace) && i < len(wantTrace) && gotTrace[i] == wantTrace[i] {
				i++
			}
			lo := max(i-120, 0)
			t.Fatalf("%s and %s traces diverge at byte %d:\n%s: ...%q\n%s: ...%q", got.mode, want.mode, i,
				got.mode, string(gotTrace[lo:min(i+120, len(gotTrace))]), want.mode, string(wantTrace[lo:min(i+120, len(wantTrace))]))
		}
		if g, w := fmt.Sprintf("%+v", got.rec.Stats()), fmt.Sprintf("%+v", want.rec.Stats()); g != w {
			t.Errorf("stats diverge:\n%s: %s\n%s: %s", got.mode, g, want.mode, w)
		}
		if got.eng.Processed() != want.eng.Processed() {
			t.Errorf("processed: %s %d, %s %d", got.mode, got.eng.Processed(), want.mode, want.eng.Processed())
		}
		if got.eng.Stopped() != want.eng.Stopped() {
			t.Errorf("stopped: %s %v, %s %v", got.mode, got.eng.Stopped(), want.mode, want.eng.Stopped())
		}
		if got.eng.Now() != want.eng.Now() {
			t.Errorf("now: %s %d, %s %d", got.mode, got.eng.Now(), want.mode, want.eng.Now())
		}
		if g, w := fmt.Sprint(got.eng.CorrectSet()), fmt.Sprint(want.eng.CorrectSet()); g != w {
			t.Errorf("correct set: %s %s, %s %s", got.mode, g, want.mode, w)
		}
		if g, w := fmt.Sprint(got.eng.EventuallyUpSet()), fmt.Sprint(want.eng.EventuallyUpSet()); g != w {
			t.Errorf("eventually-up set: %s %s, %s %s", got.mode, g, want.mode, w)
		}
	}
}

// TestLazyFanoutMatchesEager is the lazy path's differential oracle: over
// every network model family — uniform, partially synchronous with loss,
// deterministic, heavy-tailed, oscillating, per-link asymmetric, lossy,
// partitioned — a churn-heavy run under lazy fan-out, with fate tables and
// without, must be byte-identical in trace (and equal in all engine
// observables) to the same run under eager expansion. The last two models
// draw delays on both sides of the tables' one-byte range, so their late
// waves take the recompute escape.
func TestLazyFanoutMatchesEager(t *testing.T) {
	grid := []struct {
		net     Model
		horizon Time
		late    bool // some delays exceed what a table byte holds
	}{
		{net: Async{MaxDelay: 8}, horizon: 60},
		{net: PartialSync{GST: 30, Delta: 4, PreLoss: 0.3, PreMax: 12}, horizon: 60},
		{net: Timely{Delta: 3}, horizon: 60},
		{net: Pareto{Scale: 1, Alpha: 1.2, Cap: 40}, horizon: 60},
		{net: LogNormal{Median: 3, Sigma: 1, Cap: 40}, horizon: 60},
		{net: Alternating{Period: 15, GoodDelta: 3, BadMax: 20, BadLoss: 0.25, CalmAfter: 45}, horizon: 60},
		{net: AsymmetricLinks{Base: Async{MaxDelay: 5}, MaxSkew: 6}, horizon: 60},
		{net: Lossy{Base: Async{MaxDelay: 6}, P: 0.3}, horizon: 60},
		{net: Partition{Base: Async{MaxDelay: 6}, Windows: []PartitionWindow{
			{From: 10, To: 25, Cut: 8}, {From: 35, To: 50, Cut: 15},
		}}, horizon: 60},
		{net: Partition{Base: AsymmetricLinks{Base: Async{MaxDelay: 5}, MaxSkew: 6}, Windows: []PartitionWindow{
			{From: 5, To: 40, Cut: 11},
		}}, horizon: 60},
		{net: Pareto{Scale: 1, Alpha: 0.5, Cap: 400}, horizon: 300, late: true},
		{net: LogNormal{Median: 30, Sigma: 1.5}, horizon: 300, late: true},
	}
	for _, g := range grid {
		t.Run(g.net.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runs := runModes(23, g.net, seed, 0, func(e *Engine) { e.Run(g.horizon) })
				requireIdentical(t, runs)
				tabled, rescan := runs[1].eng, runs[2].eng
				if rescan.fateBytes != 0 || len(rescan.freeFates) != 0 {
					t.Errorf("a run with no budget handed out fate tables (%d B live, %d free)", rescan.fateBytes, len(rescan.freeFates))
				}
				if tabled.fateBytes == 0 && len(tabled.freeFates) == 0 {
					t.Error("the default budget handed out no fate table")
				}
				if tabled.FateEvals() > rescan.FateEvals() {
					t.Errorf("fate evaluations: %d with tables, %d without", tabled.FateEvals(), rescan.FateEvals())
				}
				if g.late != slices.ContainsFunc(tabled.fanouts, func(f fanoutRec) bool { return bytes.IndexByte(f.fates, fateLate) >= 0 }) {
					t.Errorf("in-flight tables holding a late entry: want %v", g.late)
				}
			}
		})
	}
}

// TestLazyFanoutMaxEventsMidWave pins truncation parity: with a MaxEvents
// cap chosen to trip in the middle of a delivery wave, the lazy run must
// cut at exactly the same event as the eager run and leave identical
// traces, and resuming the run must not deliver anything further.
func TestLazyFanoutMaxEventsMidWave(t *testing.T) {
	// Timely puts a whole broadcast in one wave of 23 copies, so caps that
	// are not multiples of 23 stop mid-wave.
	for _, cap := range []int{10, 57, 100, 149} {
		runs := runModes(23, Timely{Delta: 3}, 7, cap, func(e *Engine) { e.Run(60) })
		for _, r := range runs[1:] {
			if r.eng.Stopped() != StopMaxEvents {
				t.Fatalf("cap %d: %s stopped %v, want max-events", cap, r.mode, r.eng.Stopped())
			}
			if r.eng.Processed() != cap {
				t.Fatalf("cap %d: %s processed %d", cap, r.mode, r.eng.Processed())
			}
		}
		requireIdentical(t, runs)
	}
}

// TestLazyFanoutPredicateMidWave pins early-exit parity: a predicate that
// stops the run after every single event forces a resume into the middle
// of each wave, and the single-stepped execution must remain byte-identical
// to the eager one driven the same way.
func TestLazyFanoutPredicateMidWave(t *testing.T) {
	stepAll := func(e *Engine) {
		always := func() bool { return true }
		for {
			if e.RunUntil(45, always) == 0 && (e.Stopped() == StopQuiescent || e.Stopped() == StopHorizon) {
				return
			}
			if e.Stopped() == StopQuiescent || e.Stopped() == StopHorizon {
				return
			}
		}
	}
	requireIdentical(t, runModes(17, Async{MaxDelay: 6}, 11, 0, stepAll))
}

// TestLazyFanoutTableZeros pins the table encoding of copies that are never
// scheduled: one broadcast over a lossy network from a sender that crashes
// mid-broadcast leaves a zero for every lost or dropped copy, its reserved
// seqs cover the others only, and all three expansions still agree on it.
func TestLazyFanoutTableZeros(t *testing.T) {
	const n = 64
	build := func(mode string, budget int) fanRun {
		rec := trace.NewRecorder()
		eng := New(Config{IDs: ident.Balanced(n, 4), Net: Lossy{Base: Async{MaxDelay: 6}, P: 0.3}, Seed: 5, Recorder: rec, EagerFanout: mode == "eager"})
		for i := 0; i < n; i++ {
			eng.AddProcess(&quietBroadcaster{bcast: i == 0})
		}
		eng.fateBudget = budget
		eng.CrashDuringBroadcast(0, 0, 0.5)
		return fanRun{mode: mode, eng: eng, rec: rec}
	}
	runs := []fanRun{build("eager", 0), build("tabled", fateTableBudget), build("rescan", 0)}

	tabled := runs[1]
	tabled.eng.start()
	f := tabled.eng.fanouts[0]
	zeros := bytes.Count(f.fates, []byte{fateNone})
	if dropped := tabled.rec.Stats().Dropped; zeros == 0 || zeros != dropped {
		t.Fatalf("table holds %d zeros for %d send-time drops, want equal and > 0", zeros, dropped)
	}
	if reserved := int(tabled.eng.seq - f.baseSeq); reserved != n-zeros {
		t.Fatalf("broadcast reserved %d seqs for %d scheduled copies", reserved, n-zeros)
	}
	for _, r := range runs {
		r.eng.Run(50)
	}
	requireIdentical(t, runs)
	if got := tabled.rec.Stats().Delivered; got != n-zeros {
		t.Fatalf("delivered %d copies, want the %d the table scheduled", got, n-zeros)
	}
}

// TestLazyFanoutBudget runs dense traffic — every process beats, hundreds
// of broadcasts in flight — against a budget worth ten tables: the live
// table bytes never exceed it, no memory is held beyond it, broadcasts sent
// over budget rescan (so the run costs more fate evaluations than a fully
// tabled one and fewer than a table-free one), and the trace is the eager
// oracle's all the same.
func TestLazyFanoutBudget(t *testing.T) {
	const n, budget = 120, 10 * 120
	build := func(mode string, budget int) fanRun {
		eng, rec := buildFanEngine(n, Async{MaxDelay: 8}, 9, mode == "eager", 0)
		eng.fateBudget = budget
		return fanRun{mode: mode, eng: eng, rec: rec}
	}
	runs := []fanRun{build("eager", 0), build("budgeted", budget), build("tabled", fateTableBudget), build("rescan", 0)}

	budgeted := runs[1].eng
	peak := 0
	budgeted.AfterEvent(func(Time, PID) { peak = max(peak, budgeted.fateBytes) })
	for _, r := range runs {
		r.eng.Run(40)
	}
	requireIdentical(t, runs)
	if peak != budget {
		t.Errorf("live table bytes peaked at %d, want exactly the budget %d under dense traffic", peak, budget)
	}
	if held := budgeted.fateBytes + n*len(budgeted.freeFates); held > budget {
		t.Errorf("engine holds %d table bytes (live + free), over the budget %d", held, budget)
	}
	if b, tab, res := budgeted.FateEvals(), runs[2].eng.FateEvals(), runs[3].eng.FateEvals(); !(tab < b && b < res) {
		t.Errorf("fate evaluations: %d budgeted, want between %d (all tabled) and %d (none)", b, tab, res)
	}
}

// TestLazyFanoutFateEvals states the fate table's claim as a count, on the
// shape of the population-scaling rows (E21): n = 2000, 100 beaters, 5 %
// churn, async[1..8]. With tables every scheduled copy costs one fate
// evaluation, at send time; without, one per wave of its broadcast.
func TestLazyFanoutFateEvals(t *testing.T) {
	const n = 2000
	perCopy := func(budget int) float64 {
		rec := &trace.Recorder{}
		eng := New(Config{IDs: ident.Balanced(n, 100), Net: Async{MaxDelay: 8}, Seed: 1, Recorder: rec, MaxEvents: 10_000_000})
		for i := 0; i < n; i++ {
			if i%(n/100) == 0 {
				eng.AddProcess(&fanPoll{period: 15})
			} else {
				eng.AddProcess(&quietBroadcaster{})
			}
		}
		eng.fateBudget = budget
		eng.ApplyChurn(ChurnSpec{Fraction: 0.05, Start: 12, Down: 20}.Events(n))
		eng.Run(60)
		if eng.Stopped() != StopHorizon {
			t.Fatalf("stopped %v, want horizon", eng.Stopped())
		}
		// Under a reliable network every drop is a scheduled copy that met
		// a crashed recipient.
		st := rec.Stats()
		return float64(eng.FateEvals()) / float64(st.Delivered+st.Dropped)
	}
	if got := perCopy(fateTableBudget); got > 1.5 {
		t.Errorf("%.2f fate evaluations per scheduled copy with tables, want <= 1.5", got)
	}
	if got := perCopy(0); got < 8 {
		t.Errorf("%.2f fate evaluations per scheduled copy without tables, want >= 8 (one per wave plus the send-time scan)", got)
	}
}

// TestLazyFanoutConstantQueue pins the tentpole's O(1) claim: after one
// broadcast at n=1000 the queue holds one wave entry — not n deliveries —
// and a full churn run's queue high-water mark stays far below the
// in-flight copy count the eager path would enqueue.
func TestLazyFanoutConstantQueue(t *testing.T) {
	const n = 1000
	rec := trace.NewRecorder()
	eng := New(Config{IDs: ident.Balanced(n, 2), Net: Async{MaxDelay: 8}, Seed: 1, Recorder: rec})
	for i := 0; i < n; i++ {
		eng.AddProcess(&quietBroadcaster{bcast: i == 0})
	}
	eng.start()
	if got := len(eng.queue); got != 1 {
		t.Fatalf("queue holds %d entries after one broadcast at n=%d, want 1 (one wave entry per broadcast)", got, n)
	}
	eng.Run(100)
	if st := rec.Stats(); st.Delivered != n {
		t.Fatalf("delivered %d, want %d", st.Delivered, n)
	}
	if hw := eng.MaxQueueLen(); hw > 4 {
		t.Errorf("queue high-water mark %d for a single broadcast, want <= 4", hw)
	}

	// The same at full churn load: every process polls, so the eager queue
	// would hold ~n in-flight copies per in-flight broadcast. The lazy
	// high-water mark must stay O(broadcasts + timers), i.e. a few entries
	// per process, independent of fan-out.
	eng2, _ := buildFanEngine(200, Async{MaxDelay: 8}, 3, false, 0)
	eng2.Run(40)
	if hw := eng2.MaxQueueLen(); hw > 4*200 {
		t.Errorf("churn-run queue high-water mark %d at n=200, want O(n) entries (<= 800), not O(n * in-flight copies)", hw)
	}
}

type quietBroadcaster struct{ bcast bool }

func (q *quietBroadcaster) Init(env Environment) {
	if q.bcast {
		env.Broadcast(hello{From: env.ID()})
	}
}
func (q *quietBroadcaster) OnMessage(any) {}
func (q *quietBroadcaster) OnTimer(int)   {}
