package sim

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
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

// fanDriver is what a fan-out differential binds processes to and runs: the
// engine, or the eager reference around one (eager_ref_test.go).
type fanDriver interface {
	AddProcess(Process) PID
	Run(until Time) int
	RunUntil(until Time, done func() bool) int
	Stopped() StopReason
}

// fanRun is one run of a fan-out differential: drv drives it, eng is the
// engine underneath, where every observable lives. order hashes the
// (time, process, seq) of every event in the order processed — the seq is
// in no trace, and it is what a copy's reserved position claims to equal.
type fanRun struct {
	mode  string
	eng   *Engine
	drv   fanDriver
	rec   *trace.Recorder
	order hash.Hash64
}

// newFanRun builds an engine over cfg with a retaining recorder; mode
// "eager" puts the eager reference in front of it.
func newFanRun(mode string, cfg Config) fanRun {
	rec := trace.NewRecorder()
	cfg.Recorder = rec
	eng := New(cfg)
	r := fanRun{mode: mode, eng: eng, drv: eng, rec: rec, order: fnv.New64a()}
	if mode == "eager" {
		r.drv = &eagerRef{Engine: eng}
	}
	eng.AfterEvent(func(now Time, p PID) { fmt.Fprintln(r.order, now, p, eng.curSeq) })
	return r
}

// buildFanEngine assembles one churn-heavy engine: n pollsters, a crash
// with recovery, a crash-stop, and a partial (mid-broadcast) crash, over
// the given network model.
func buildFanEngine(mode string, n int, net Model, seed int64, maxEvents int) fanRun {
	r := newFanRun(mode, Config{IDs: ident.Balanced(n, 2), Net: net, Seed: seed, MaxEvents: maxEvents})
	for i := 0; i < n; i++ {
		r.drv.AddProcess(&fanPoll{period: 5})
	}
	r.eng.CrashAt(1, 12)
	r.eng.RecoverAt(1, 31)
	r.eng.CrashAt(2, 40)
	r.eng.CrashDuringBroadcast(3, 20, 0.5)
	return r
}

// runModes runs the same scenario through the three expansions that must
// agree — the eager reference, the engine with fate tables, and the engine
// with the table budget forced to zero so every wave rescans — each driven
// by the same Run calls.
func runModes(n int, net Model, seed int64, maxEvents int, drive func(e fanDriver)) []fanRun {
	var runs []fanRun
	for _, mode := range []string{"eager", "tabled", "rescan"} {
		r := buildFanEngine(mode, n, net, seed, maxEvents)
		if mode == "rescan" {
			r.eng.fateBudget = 0
		}
		drive(r.drv)
		runs = append(runs, r)
	}
	return runs
}

var update = flag.Bool("update", false, "rewrite testdata/eager_digests.txt from the eager runs of the fan-out differentials")

const eagerDigestPath = "testdata/eager_digests.txt"

// eagerDigests is testdata/eager_digests.txt: for every case the fan-out
// differentials run, the eager run's trace digest and engine observables,
// one "key<TAB>digest" line each. The file was written by the engine's own
// eager expansion; whatever plays the eager part now has to reproduce it.
// Under -update the cases a run visits are collected here and TestMain
// writes them out.
var eagerDigests = map[string]string{}

func TestMain(m *testing.M) {
	flag.Parse()
	if !*update {
		data, err := os.ReadFile(eagerDigestPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			key, digest, _ := strings.Cut(line, "\t")
			eagerDigests[key] = digest
		}
	}
	code := m.Run()
	if *update && code == 0 {
		lines := make([]string, 0, len(eagerDigests))
		for key, digest := range eagerDigests {
			lines = append(lines, key+"\t"+digest+"\n")
		}
		slices.Sort(lines)
		if err := os.WriteFile(eagerDigestPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// requireIdentical asserts that every run is byte-identical in trace to the
// first and equal to it in every observable the engine exposes, and that
// the first — the eager run — is the one pinned under key.
func requireIdentical(t *testing.T, key string, runs []fanRun) {
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
	digest := fmt.Sprintf("sha256=%x events=%d processed=%d stopped=%v now=%d correct=%v up=%v stats=%+v",
		sha256.Sum256(wantTrace), len(want.rec.Events()), want.eng.Processed(), want.eng.Stopped(), want.eng.Now(),
		want.eng.CorrectSet(), want.eng.EventuallyUpSet(), want.rec.Stats())
	if *update {
		eagerDigests[key] = digest
	} else if pinned, ok := eagerDigests[key]; !ok || pinned != digest {
		t.Errorf("%s run of %q is not the pinned one:\n got %s\nwant %s", want.mode, key, digest, pinned)
	}
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
		if got.order.Sum64() != want.order.Sum64() {
			t.Errorf("%s and %s processed events in different (time, process, seq) order", got.mode, want.mode)
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
// observables) to the same run under eager expansion. The models marked
// late draw delays past a table code's range of 13, so their tables are
// rebased: the partially synchronous one before its GST at n = 64 several
// times per broadcast, each late copy drawn in the scan's own way.
func TestLazyFanoutMatchesEager(t *testing.T) {
	grid := []struct {
		net     Model
		n       int
		horizon Time
		late    bool // some delays exceed what a table code holds
	}{
		{net: Async{MaxDelay: 8}, horizon: 60},
		{net: PartialSync{GST: 30, Delta: 4, PreLoss: 0.3, PreMax: 12}, horizon: 60},
		{net: PartialSync{GST: 1000, Delta: 5, PreMax: 40}, n: 64, horizon: 60, late: true},
		{net: Timely{Delta: 3}, horizon: 60},
		{net: Pareto{Scale: 1, Alpha: 1.2, Cap: 40}, horizon: 60, late: true},
		{net: LogNormal{Median: 3, Sigma: 1, Cap: 40}, horizon: 60, late: true},
		{net: Alternating{Period: 15, GoodDelta: 3, BadMax: 20, BadLoss: 0.25, CalmAfter: 45}, horizon: 60, late: true},
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
			n := cmp.Or(g.n, 23)
			for seed := int64(1); seed <= 3; seed++ {
				runs := runModes(n, g.net, seed, 0, func(e fanDriver) { e.Run(g.horizon) })
				key := fmt.Sprintf("matches/%s/seed=%d", g.net, seed)
				if g.n != 0 {
					key = fmt.Sprintf("matches/%s/n=%d/seed=%d", g.net, n, seed)
				}
				requireIdentical(t, key, runs)
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
				// Every broadcast is tabled and scanned once, so evaluations
				// beyond the scans' are rebased copies.
				scans := uint64(runs[1].rec.Stats().Broadcasts * n)
				if rebased := tabled.FateEvals() - scans; g.late != (rebased > 0) {
					t.Errorf("%d copies rebased, want some: %v", rebased, g.late)
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
	// Timely puts a whole broadcast in one wave of n copies, and the run
	// opens with n of them, so a cap c < n² stops broadcast c/n short of
	// its copy for recipient c%n: the caps put that recipient first and
	// last in a table word, inside one, and in the tail n%8 leaves.
	for _, n := range []int{7, 8, 9, 23, 64, 65} {
		for _, cap := range []int{1, 7, 8, 9, n - 1, n, n + 1, n + 8, 2*n + 10, 3*n + 5, 6*n + 11} {
			runs := runModes(n, Timely{Delta: 3}, 7, cap, func(e fanDriver) { e.Run(60) })
			for _, r := range runs[1:] {
				if r.eng.Stopped() != StopMaxEvents {
					t.Fatalf("n %d cap %d: %s stopped %v, want max-events", n, cap, r.mode, r.eng.Stopped())
				}
				if r.eng.Processed() != cap {
					t.Fatalf("n %d cap %d: %s processed %d", n, cap, r.mode, r.eng.Processed())
				}
			}
			requireIdentical(t, fmt.Sprintf("maxevents/n=%d/cap=%d", n, cap), runs)
		}
	}
}

// TestLazyFanoutPredicateMidWave pins early-exit parity: a predicate that
// stops the run after every single event forces a resume into the middle
// of each wave, and the single-stepped execution must remain byte-identical
// to the eager one driven the same way.
func TestLazyFanoutPredicateMidWave(t *testing.T) {
	stepAll := func(e fanDriver) {
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
	for _, n := range []int{7, 8, 9, 17, 64, 65} {
		requireIdentical(t, fmt.Sprintf("predicate/n=%d", n), runModes(n, Async{MaxDelay: 6}, 11, 0, stepAll))
	}
}

// TestLazyFanoutTableZeros pins the table encoding of copies that are never
// scheduled: one broadcast over a lossy network from a sender that crashes
// mid-broadcast leaves a zero for every lost or dropped copy, its reserved
// seqs cover the others only, and all three expansions still agree on it.
func TestLazyFanoutTableZeros(t *testing.T) {
	const n = 64
	build := func(mode string, budget int) fanRun {
		r := newFanRun(mode, Config{IDs: ident.Balanced(n, 4), Net: Lossy{Base: Async{MaxDelay: 6}, P: 0.3}, Seed: 5})
		for i := 0; i < n; i++ {
			r.drv.AddProcess(&quietBroadcaster{bcast: i == 0})
		}
		r.eng.fateBudget = budget
		r.eng.CrashDuringBroadcast(0, 0, 0.5)
		return r
	}
	runs := []fanRun{build("eager", 0), build("tabled", fateTableBudget), build("rescan", 0)}

	tabled := runs[1]
	tabled.eng.start()
	f := tabled.eng.fanouts[0]
	zeros := 0
	for to := 0; to < n; to++ {
		if f.fates[to>>4]>>(4*(to&15))&15 == codeNone {
			zeros++
		}
	}
	if dropped := tabled.rec.Stats().Dropped; zeros == 0 || zeros != dropped {
		t.Fatalf("table holds %d zeros for %d send-time drops, want equal and > 0", zeros, dropped)
	}
	if reserved := int(tabled.eng.seq - f.baseSeq); reserved != n-zeros {
		t.Fatalf("broadcast reserved %d seqs for %d scheduled copies", reserved, n-zeros)
	}
	for _, r := range runs {
		r.drv.Run(50)
	}
	requireIdentical(t, "tablezeros", runs)
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
	const n = 120
	const budget = 10 * 8 * ((n + 15) / 16) // ten tables
	build := func(mode string, budget int) fanRun {
		r := buildFanEngine(mode, n, Async{MaxDelay: 8}, 9, 0)
		r.eng.fateBudget = budget
		return r
	}
	runs := []fanRun{build("eager", 0), build("budgeted", budget), build("tabled", fateTableBudget), build("rescan", 0)}

	budgeted := runs[1].eng
	peak := 0
	budgeted.AfterEvent(func(Time, PID) { peak = max(peak, budgeted.fateBytes) })
	for _, r := range runs {
		r.drv.Run(40)
	}
	requireIdentical(t, "budget", runs)
	if peak != budget {
		t.Errorf("live table bytes peaked at %d, want exactly the budget %d under dense traffic", peak, budget)
	}
	if held := budgeted.fateBytes + 8*tableWords(n)*len(budgeted.freeFates); held > budget {
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
//
// The waves' side of the claim is WaveWords: a wave loads the table a word
// at a time, at most ⌈n/16⌉ loads where a scan of the entries visits n, and
// async[1..8] gives a broadcast at most 8 waves.
func TestLazyFanoutFateEvals(t *testing.T) {
	const n = 2000
	perCopy := func(budget int) (float64, *Engine, trace.Stats) {
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
		return float64(eng.FateEvals()) / float64(st.Delivered+st.Dropped), eng, st
	}
	got, eng, st := perCopy(fateTableBudget)
	if got > 1.5 {
		t.Errorf("%.2f fate evaluations per scheduled copy with tables, want <= 1.5", got)
	}
	if words, bound := eng.WaveWords(), uint64(st.Broadcasts)*8*uint64(tableWords(n)); words == 0 || words > bound {
		t.Errorf("waves loaded %d table words for %d broadcasts, want > 0 and <= %d (8 waves of %d words each)", words, st.Broadcasts, bound, tableWords(n))
	}
	got, eng, _ = perCopy(0)
	if got < 8 {
		t.Errorf("%.2f fate evaluations per scheduled copy without tables, want >= 8 (one per wave plus the send-time scan)", got)
	}
	if eng.WaveWords() != 0 {
		t.Errorf("waves loaded %d table words in a run without tables", eng.WaveWords())
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
	eng2 := buildFanEngine("tabled", 200, Async{MaxDelay: 8}, 3, 0).eng
	eng2.Run(40)
	if hw := eng2.MaxQueueLen(); hw > 4*200 {
		t.Errorf("churn-run queue high-water mark %d at n=200, want O(n) entries (<= 800), not O(n * in-flight copies)", hw)
	}
}

// lostNet loses every copy.
type lostNet struct{}

func (lostNet) Delay(Time, *Fate) (Time, bool) { return 0, false }
func (lostNet) String() string                 { return "lost" }

// requireOneRecordPerBroadcast checks the fanout table against the queue:
// the records in use are exactly those a queue entry names, they hold a
// payload, every other record is zero — no payload, no fate table pinned —
// and the live table bytes are those of the records in use.
func requireOneRecordPerBroadcast(t *testing.T, e *Engine) {
	t.Helper()
	inFlight := map[int32]bool{}
	for _, ev := range e.queue {
		if ev.kind == evFanout {
			if inFlight[ev.arg] {
				t.Fatalf("two queue entries name record %d", ev.arg)
			}
			inFlight[ev.arg] = true
		}
	}
	if got := len(e.fanouts) - len(e.freeFans); got != len(inFlight) {
		t.Fatalf("%d records in use (%d allocated, %d free) for %d broadcasts in flight", got, len(e.fanouts), len(e.freeFans), len(inFlight))
	}
	tableBytes := 0
	for i, f := range e.fanouts {
		switch {
		case !inFlight[int32(i)]:
			if !reflect.DeepEqual(f, fanoutRec{}) {
				t.Fatalf("retired record %d is not zeroed: %+v", i, f)
			}
		case f.payload == nil:
			t.Fatalf("record %d of an in-flight broadcast holds no payload", i)
		}
		tableBytes += 8 * len(f.fates)
	}
	if tableBytes != e.fateBytes {
		t.Fatalf("%d table bytes accounted live, the records in use hold %d", e.fateBytes, tableBytes)
	}
}

// TestFanoutRecordLifetime holds the engine to one record per in-flight
// broadcast, freed in one place: after every event of a run single-stepped
// to quiescence (one sender crashing mid-broadcast, every stop but a
// wave's last in the middle of it), for broadcasts that schedule no copy at
// all, and across a MaxEvents stop in the middle of a wave and the run that
// resumes it.
func TestFanoutRecordLifetime(t *testing.T) {
	const n, senders = 19, 5
	build := func(net Model, maxEvents int) *Engine {
		e := New(Config{IDs: ident.Balanced(n, 3), Net: net, Seed: 4, MaxEvents: maxEvents})
		for i := 0; i < n; i++ {
			e.AddProcess(&quietBroadcaster{bcast: i%4 == 0})
		}
		return e
	}

	t.Run("quiescent", func(t *testing.T) {
		e := build(Async{MaxDelay: 8}, 0)
		e.CrashDuringBroadcast(4, 0, 0.5)
		always := func() bool { return true }
		for e.RunUntil(1000, always); e.Stopped() == StopPredicate; e.RunUntil(1000, always) {
			requireOneRecordPerBroadcast(t, e)
		}
		requireOneRecordPerBroadcast(t, e)
		if e.Stopped() != StopQuiescent || len(e.queue) != 0 {
			t.Fatalf("stopped %v with %d queue entries, want quiescent", e.Stopped(), len(e.queue))
		}
		if len(e.fanouts) != senders || len(e.freeFans) != senders {
			t.Errorf("%d records, %d free after %d broadcasts, want all of them back", len(e.fanouts), len(e.freeFans), senders)
		}
	})

	// Every copy lost, and every copy dropped by the sender's own crash:
	// the broadcast is over when it returns, and leaves no record behind.
	for _, name := range []string{"all lost", "all dropped"} {
		t.Run(name, func(t *testing.T) {
			e := build(lostNet{}, 0)
			if name == "all dropped" {
				e = build(Async{MaxDelay: 8}, 0)
				for p := PID(0); p < n; p += 4 {
					e.CrashDuringBroadcast(p, 0, 0)
				}
			}
			e.start()
			if len(e.queue) != 0 || len(e.fanouts) != 0 || e.seq != 0 {
				t.Fatalf("%d queue entries, %d records, %d seqs reserved for broadcasts without a scheduled copy", len(e.queue), len(e.fanouts), e.seq)
			}
			if e.fateBytes != 0 || len(e.freeFates) != 1 {
				t.Errorf("%d table bytes live, %d tables free, want the one table back on the freelist", e.fateBytes, len(e.freeFates))
			}
			requireOneRecordPerBroadcast(t, e)
		})
	}

	t.Run("mid-wave stop and resume", func(t *testing.T) {
		// Timely puts a broadcast in one wave: the cap stops the second
		// broadcast short of its copy for recipient 5.
		e := build(Timely{Delta: 3}, n+5)
		e.Run(1000)
		if e.Stopped() != StopMaxEvents {
			t.Fatalf("stopped %v, want max-events", e.Stopped())
		}
		if !slices.ContainsFunc(e.fanouts, func(f fanoutRec) bool { return f.resumeI == 5 }) {
			t.Fatalf("no record suspended at recipient 5: %+v", e.fanouts)
		}
		requireOneRecordPerBroadcast(t, e)
		if got := len(e.fanouts) - len(e.freeFans); got != senders-1 {
			t.Errorf("%d records in use with %d broadcasts undelivered", got, senders-1)
		}
		e.cfg.MaxEvents = 1 << 20
		e.Run(1000)
		requireOneRecordPerBroadcast(t, e)
		if e.Stopped() != StopQuiescent || e.Processed() != senders*n {
			t.Fatalf("stopped %v after %d events, want quiescent after %d", e.Stopped(), e.Processed(), senders*n)
		}
		if len(e.freeFans) != senders {
			t.Errorf("%d records free after the resumed run, want %d", len(e.freeFans), senders)
		}
	})
}

type quietBroadcaster struct{ bcast bool }

func (q *quietBroadcaster) Init(env Environment) {
	if q.bcast {
		env.Broadcast(hello{From: env.ID()})
	}
}
func (q *quietBroadcaster) OnMessage(any) {}
func (q *quietBroadcaster) OnTimer(int)   {}

// waveRef is deliverWave as it stood before waves read the fate table a
// word at a time: one pass over the recipients, each table entry put
// through a three-way compare with the wave's delay, the same pass finding
// the minimum delay beyond it. It is kept as the oracle for deliverWave, as
// it was but for the payload and tag read from the record, where they now
// are, and for the entries it reads: half-byte codes against the record's
// base, which it never moves — a late copy's delay always comes from
// copyFate here, where deliverWave rebases the table.
func (e *Engine) waveRef(ev event) StopReason {
	idx := ev.arg
	f := e.fanouts[idx]
	payload := f.payload
	stop := StopNone
	resumeI := -1
	var resumeSeq uint64
	var nextDelay Time = -1
	var nextFirstK int32
	k := int32(0)
	for to := range e.procs {
		var d Time
		if f.fates != nil {
			switch code := f.fates[to>>4] >> (4 * (to & 15)) & 15; code {
			case codeNone:
				continue
			case codeDone:
				d = 0 // delivered in an earlier range
			case codeLate:
				d, _ = e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
			default:
				d = f.base + Time(code)
			}
		} else {
			var st fateStatus
			d, st = e.copyFate(f.key, f.sent, f.from, f.partial, f.prob, to)
			if st != fateDeliver {
				continue
			}
		}
		ck := k
		k++
		if d < f.delay {
			continue // delivered in an earlier wave
		}
		if d > f.delay {
			if nextDelay < 0 || d < nextDelay {
				nextDelay = d
				nextFirstK = ck
			}
			continue
		}
		if to < int(f.resumeI) {
			continue // delivered before a mid-wave stop
		}
		if stop != StopNone {
			// Already stopping: just find the wave's resume point.
			if resumeI < 0 {
				resumeI = to
				resumeSeq = f.baseSeq + uint64(ck)
			}
			continue
		}
		if e.processed >= e.cfg.MaxEvents {
			stop = StopMaxEvents
			resumeI = to
			resumeSeq = f.baseSeq + uint64(ck)
			continue
		}
		e.deliverCopy(to, payload, f.tag, f.tagRef, f.baseSeq+uint64(ck))
		if e.done != nil && e.done() {
			stop = StopPredicate
		}
	}
	switch {
	case resumeI >= 0:
		e.fanouts[idx].resumeI = int32(resumeI)
		e.requeue(event{time: ev.time, seq: resumeSeq, kind: evFanout, pid: ev.pid, arg: idx})
	case nextDelay >= 0:
		e.fanouts[idx].delay = nextDelay
		e.fanouts[idx].resumeI = 0
		e.requeue(event{time: f.sent + nextDelay, seq: f.baseSeq + uint64(nextFirstK), kind: evFanout, pid: ev.pid, arg: idx})
	default:
		e.freeFateTable(f.fates)
		e.freeFanout(idx)
	}
	return stop
}

// lateNet delays every copy by 14 to 33 past from: beyond the range of a
// table planted with base from, and across two ranges once rebased, so the
// fates copyFate recomputes for the table's late entries agree with them.
// Unlike Async over the same span, the engine draws it through copyFate.
type lateNet struct{ from Time }

func (l lateNet) Delay(_ Time, r *Fate) (Time, bool) { return l.from + 14 + Time(r.Int63n(20)), true }
func (l lateNet) String() string                     { return fmt.Sprintf("late[%d+14..33]", l.from) }

// waveCase is one wave of one planted broadcast: its fate table, one code
// per recipient, the base the codes count from, the wave's code (0, 14 or
// 15 for the late wave: the table's shortest late delay, which rebases
// it), the recipient index it resumes at, and a stop once stopAt copies
// have been processed — by the MaxEvents guard, which stops short of the
// next copy, or by a predicate, which stops behind the last one and has
// the wave look for its resume point. down marks crashed recipients (bit
// to%64), retain the recorder mode, uniform draws the late copies' delays
// from Async rather than lateNet.
type waveCase struct {
	table   []byte
	base    Time
	code    byte
	resumeI int
	stopAt  int
	pred    bool
	down    uint64
	retain  bool
	uniform bool
}

// waveHit is one processed copy: its recipient and its seq (the ordinal of
// the copy among the broadcast's scheduled ones, over baseSeq).
type waveHit struct {
	to  PID
	seq int64
}

// waveOutcome is everything a wave leaves behind, and what the waves after
// it deliver.
type waveOutcome struct {
	hits      []waveHit
	wave      Time // the wave's delay
	stop      StopReason
	queue     []event // the queue in pop order: the wave's entry, its (time, seq) the next wave's delay and first copy, or the resume point
	delay     Time    // the record after the wave: zero once retired
	resumeI   int32
	freed     [2]int // records, tables on the freelists
	processed int
	stats     string
	events    []trace.Event
	// rest is every copy the broadcast's later waves process, run to
	// retirement without a stop: the table the wave left behind (rebased
	// or not) must still name them.
	rest []waveHit
}

// runWave plants c in a fresh engine, its entry at the heap root, and runs
// the wave and then the waves after it: popped and handed to waveRef if
// ref, through the engine's step otherwise, which delivers it with the
// entry parked and re-keys or pops it.
func runWave(c waveCase, ref bool) waveOutcome {
	n := len(c.table)
	rec := &trace.Recorder{KeepEvents: c.retain}
	var net Model = lateNet{from: c.base}
	if c.uniform {
		net = Async{MinDelay: c.base + 14, MaxDelay: c.base + 33}
	}
	// An engine needs a process; an empty table gets one and loses it.
	e := New(Config{IDs: ident.Unique(max(n, 1)), Net: net, Seed: 1, Recorder: rec, MaxEvents: 1 << 30})
	for i := 0; i < max(n, 1); i++ {
		e.AddProcess(&quietBroadcaster{})
	}
	e.start()
	e.procs = e.procs[:n]
	for to := 0; to < n; to++ {
		e.crashed[to] = c.down>>(to%64)&1 == 1
	}

	f := fanoutRec{key: 0xFA7E, baseSeq: 1000, sent: 5, payload: hello{}, tag: TagOf(hello{}), fates: make([]uint64, tableWords(n)), base: c.base, resumeI: int32(c.resumeI)}
	k := int32(0)
	for to, b := range c.table {
		code := uint64(b & 15)
		f.fates[to>>4] |= code << (4 * (to & 15))
		if code != codeNone && code != codeDone {
			f.codes |= 1 << code
		}
		if code == codeLate {
			if d, _ := e.copyFate(f.key, f.sent, f.from, false, 0, to); f.lateDelay == 0 || d < f.lateDelay {
				f.lateDelay, f.lateK = d, k
			}
		}
		if code != codeNone {
			k++
		}
	}
	switch code := Time(c.code & 15); {
	case code != codeNone && code <= codeMax:
		f.delay = c.base + code
	case f.lateDelay != 0:
		f.delay = f.lateDelay
	default: // no late wave to plant: the range's last one
		f.delay = c.base + codeMax
	}
	e.fateBytes = 8 * len(f.fates)
	e.seq = f.baseSeq + uint64(k)
	e.now = f.sent + f.delay
	idx := e.allocFanout(f)

	out := waveOutcome{wave: f.delay}
	hits := &out.hits
	e.AfterEvent(func(_ Time, p PID) { *hits = append(*hits, waveHit{p, e.curSeq}) })
	if c.pred {
		e.done = func() bool { return e.processed >= c.stopAt }
	} else {
		e.cfg.MaxEvents = c.stopAt
	}
	e.queue = append(e.queue, event{time: e.now, seq: f.baseSeq, kind: evFanout, pid: 0, arg: idx})
	wave := func() StopReason {
		if !ref {
			return e.step()
		}
		ev := e.pop()
		e.now = ev.time
		return e.waveRef(ev)
	}
	out.stop = wave()
	e.flushTally() // what RunUntil does on return
	// In pop order: re-keying the entry in place may leave the heap's array
	// in another layout than a pop and a push, and only the order counts.
	out.queue = popOrder(e.queue)
	out.delay, out.resumeI = e.fanouts[idx].delay, e.fanouts[idx].resumeI
	out.freed = [2]int{len(e.freeFans), len(e.freeFates)}
	out.processed = e.processed
	out.stats = fmt.Sprintf("%+v", rec.Stats())
	out.events = rec.Events()

	hits = &out.rest
	e.done, e.cfg.MaxEvents = nil, 1<<30
	for len(e.queue) > 0 {
		wave()
	}
	return out
}

// checkWave runs c through deliverWave and through waveRef and requires
// the same outcome: the same recipients with the same seqs, the same stop,
// the same next wave (delay and first copy) or resume point (index and
// seq), the same record, counts and trace, and the same copies delivered
// by the waves after it.
func checkWave(t *testing.T, c waveCase) waveOutcome {
	t.Helper()
	got, want := runWave(c, false), runWave(c, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table %v base %d code %d resumeI %d stopAt %d pred %v down %#x retain %v uniform %v:\ndeliverWave %+v\n    waveRef %+v",
			c.table, c.base, c.code, c.resumeI, c.stopAt, c.pred, c.down, c.retain, c.uniform, got, want)
	}
	return got
}

// TestWaveSelectEqualsByteScan is deliverWave's differential test against
// the entry-at-a-time loop it replaced: 15,123 seeded tables, 213 of each
// length 0–70 (every len%16 tail) whose codes are drawn from {0, the wave's
// code and its neighbours, 12, 13, 14, 15} against a base of 0, 13 or 26.
// One wave in five has code 1 or 2, so 1-nibbles follow zero nibbles, and
// one in five is a late wave, which rebases the table. For each length
// every resume index up to it — word starts and mid-word alike — then 142
// waves from the start; a stop after some copy count up to the wave's
// size, by MaxEvents and by predicate; crashed recipients, both recorder
// modes, and late copies drawn through copyFate and in the scan's own way.
// Every broadcast then runs to retirement, so each rebase — late delays
// span two ranges — is compared too.
//
// Verified to fail with each of four planted mutations in fanout.go:
// nonzeroNibbles replaced by the inexact nibHigh &^ ((x - nibOnes) &^ x)
// ("haszero": its borrow makes a nibble that differs from the code by one
// look equal to it when it follows an equal nibble); the popcount prefix
// 1<<bit - 1 widened to 1<<(bit+1) - 1 (the copy counts itself: every seq
// one too high); the resume mask shifted one nibble too far; and the next
// wave's first copy located with m-1 in place of (m&-m)-1.
func TestWaveSelectEqualsByteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var suspended, advanced, retired, rebased int
	for i := 0; i < 71*213; i++ {
		code := byte(1 + rng.Intn(13))
		switch rng.Intn(5) {
		case 0:
			code = byte(1 + rng.Intn(2))
		case 1:
			code = byte(codeDone + rng.Intn(2)) // the late wave
		}
		own := min(code, codeLate)
		alphabet := []byte{codeNone, codeNone, own, own, 12, 13, codeDone, codeLate}
		if code > 1 && code <= codeMax {
			alphabet = append(alphabet, code-1)
		}
		if code < codeMax {
			alphabet = append(alphabet, code+1)
		}
		// A third of the tables are mostly empty words, a third have no
		// gaps, and half hold nothing past the wave: it is the last.
		skew, last := rng.Intn(3), rng.Intn(2) == 0
		table := make([]byte, i%71)
		for j := range table {
			switch {
			case skew == 1 && rng.Intn(4) != 0:
				table[j] = codeNone
			case skew == 2:
				table[j] = alphabet[2+rng.Intn(len(alphabet)-2)]
			default:
				table[j] = alphabet[rng.Intn(len(alphabet))]
			}
			if last && code <= codeMax && table[j] > code && table[j] != codeDone {
				table[j] = own
			}
		}
		c := waveCase{
			table:   table,
			base:    Time(13 * rng.Intn(3)),
			code:    code,
			stopAt:  rng.Intn(len(table)/3 + 2),
			pred:    rng.Intn(2) == 0,
			retain:  rng.Intn(2) == 0,
			uniform: rng.Intn(2) == 0,
		}
		if r := i / 71; r <= 70 {
			c.resumeI = r % (len(table) + 1)
		}
		if rng.Intn(3) == 0 {
			c.down = rng.Uint64() & rng.Uint64()
		}
		if rng.Intn(3) == 0 {
			c.stopAt = 1 << 20 // no stop
		}
		if code > codeMax && slices.Contains(table, codeLate) {
			rebased++
		}
		switch out := checkWave(t, c); {
		case len(out.queue) == 0:
			retired++
		case out.delay == out.wave:
			suspended++
		default:
			advanced++
		}
	}
	if least := min(suspended, advanced, retired, rebased); least < 71*213/8 {
		t.Errorf("%d waves suspended, %d advanced, %d retired, %d rebased: want each in an eighth of the cases", suspended, advanced, retired, rebased)
	}
}

// FuzzWaveSelect is the same comparison on arbitrary tables: each table
// byte's low nibble is one recipient's code; cur's high nibble is the base
// and its low nibble the wave's code (0, 14 and 15 name the late wave);
// stopAfter's low bit chooses a predicate stop over a MaxEvents one and
// the rest is the copy count it strikes at.
func FuzzWaveSelect(f *testing.F) {
	f.Add([]byte{}, byte(1), uint16(0), uint16(0))
	f.Add([]byte{2, 0, 1, 2, 0, 1, 1, 2, 2}, byte(2), uint16(0), uint16(4))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, byte(3), uint16(9), uint16(7))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 15, 13, 0, 15, 14, 13, 0}, byte(0x2d), uint16(0), uint16(1))
	f.Add([]byte{15, 1, 15, 0, 15, 15, 9, 14, 15}, byte(0x1f), uint16(2), uint16(3))
	f.Fuzz(func(t *testing.T, table []byte, cur byte, resumeI, stopAfter uint16) {
		if len(table) > 512 {
			t.Skip("longer than anything a word boundary distinguishes")
		}
		down := uint64(0)
		for _, b := range table {
			down = down*31 + uint64(b)
		}
		checkWave(t, waveCase{
			table:   table,
			base:    Time(cur >> 4),
			code:    cur & 15,
			resumeI: int(resumeI),
			stopAt:  int(stopAfter >> 1),
			pred:    stopAfter&1 == 1,
			down:    down,
			retain:  len(table)%2 == 0,
			uniform: len(table)%3 == 0,
		})
	})
}

// TestUniformDrawMatchesCopyFate holds the fan-out's own draw for the
// paper's two timing models (uniformLaw: the send-time scan and the
// rebase) to copyFate, the path every other model takes, and to refDelay,
// the *rand.Rand oracle: for each model 100,000 (key, recipient) pairs —
// 1,000 broadcasts to 100 processes, each run to its last wave, every
// copy's delay read off its delivery time. The spans are Async's 1, 2, 3,
// 7, 8 and 10; 2^61+1, a quarter of whose draws Int63n rejects (every copy
// its own range, so the waves rebase per copy); and PartialSync's on both
// sides of GST, 40 wide before it. The engine's own Fate, which copyFate
// reseeds, must be untouched by the run.
//
// Verified to fail with Int63n's rejection loop replaced by a single draw,
// and with the scan drawing Int63n(span+1).
func TestUniformDrawMatchesCopyFate(t *testing.T) {
	const n = 100
	bcasts := 1000
	if testing.Short() {
		bcasts = 100
	}
	models := []Model{
		Async{MaxDelay: 1}, Async{MaxDelay: 2}, Async{MaxDelay: 3}, Async{MaxDelay: 7}, Async{MaxDelay: 8}, Async{MaxDelay: 10},
		Async{MinDelay: 1, MaxDelay: 1<<61 + 1},
		PartialSync{GST: 0, Delta: 5},
		PartialSync{GST: 1, Delta: 5, PreMax: 40},
	}
	ids := ident.Unique(n)
	for _, m := range models {
		for b := 0; b < bcasts; b++ {
			e := New(Config{IDs: ids, Net: m, Seed: int64(b)})
			for i := 0; i < n; i++ {
				e.AddProcess(&quietBroadcaster{bcast: i == 0})
			}
			e.start()
			key := e.fanouts[0].key
			got := make([]Time, n)
			e.AfterEvent(func(now Time, p PID) { got[p] = now })
			e.Run(1 << 62)
			if e.fate != (Fate{}) {
				t.Fatalf("%s: the run drew through copyFate", m)
			}
			for to := range got {
				d, st := e.copyFate(key, 0, 0, false, 0, to)
				ref := &Fate{}
				ref.seed(key, to)
				wantD, _ := refDelay(m, 0, 0, PID(to), false, fateRef(ref))
				if st != fateDeliver || got[to] != d || d != wantD {
					t.Fatalf("%s key=%#x to=%d: delivered after %d, copyFate draws %d (%v), refDelay %d", m, key, to, got[to], d, st, wantD)
				}
			}
		}
	}
}
