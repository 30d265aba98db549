package sweep_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	hds "repro"
	"repro/internal/experiments"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func TestMapPreservesInputOrder(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		out := sweep.MapOpt(sweep.Options{Workers: workers}, in, func(i, v int) int {
			return v * v
		})
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if out := sweep.Map(nil, func(i, v int) int { return v }); len(out) != 0 {
		t.Fatalf("empty input produced %v", out)
	}
	out := sweep.Map([]int{7}, func(i, v int) int { return v + 1 })
	if len(out) != 1 || out[0] != 8 {
		t.Fatalf("single input produced %v", out)
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	in := []int{0, 1, 2, 3, 4, 5, 6, 7}
	wantErr := errors.New("boom-2")
	for _, workers := range []int{1, 4} {
		out, err := sweep.MapErr(sweep.Options{Workers: workers}, in, func(i, v int) (int, error) {
			switch v {
			case 2:
				return 0, wantErr
			case 5:
				return 0, errors.New("boom-5")
			}
			return v * 10, nil
		})
		if err == nil || err.Error() != "boom-2" {
			t.Fatalf("workers=%d: err = %v, want boom-2 (lowest index, order-independent)", workers, err)
		}
		// All non-failing inputs still ran to completion.
		if out[7] != 70 {
			t.Fatalf("workers=%d: out[7] = %d, want 70", workers, out[7])
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
				}
			}()
			sweep.MapOpt(sweep.Options{Workers: workers}, []int{0, 1, 2, 3}, func(i, v int) int {
				if v == 1 {
					panic("scenario exploded")
				}
				return v
			})
		}()
	}
}

// TestMapPanicLowestIndexMatchesSerial pins the panic determinism
// contract: whatever the worker count and completion order, the panic that
// reaches the caller is the one a serial run would have raised — the
// lowest-index one. Index 10 here panics immediately while index 9 sleeps
// first, so under any parallel schedule a completion-order implementation
// would surface boom-10.
func TestMapPanicLowestIndexMatchesSerial(t *testing.T) {
	capture := func(workers int) (val any) {
		defer func() { val = recover() }()
		sweep.MapOpt(sweep.Options{Workers: workers}, make([]struct{}, 64), func(i int, _ struct{}) int {
			switch i {
			case 9:
				time.Sleep(30 * time.Millisecond)
				panic(fmt.Sprintf("boom-%d", i))
			case 10:
				panic(fmt.Sprintf("boom-%d", i))
			}
			return i
		})
		return nil
	}
	serial := capture(1)
	if serial != "boom-9" {
		t.Fatalf("serial panic = %v, want boom-9", serial)
	}
	for _, workers := range []int{2, 4, 16, 64} {
		if got := capture(workers); got != serial {
			t.Fatalf("workers=%d: panic = %v, want %v (serial semantics)", workers, got, serial)
		}
	}
}

// TestMapPanicStopsDispatch verifies the pool stops handing out new
// indices once a panic is captured: with the first index panicking
// immediately and every other job taking a few milliseconds, only the
// jobs already in flight may still run — not the whole input.
func TestMapPanicStopsDispatch(t *testing.T) {
	const n = 10_000
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		sweep.MapOpt(sweep.Options{Workers: 4}, make([]struct{}, n), func(i int, _ struct{}) int {
			ran.Add(1)
			if i == 0 {
				panic("early")
			}
			time.Sleep(2 * time.Millisecond)
			return i
		})
	}()
	if got := ran.Load(); got > n/10 {
		t.Fatalf("pool kept dispatching after panic: %d of %d jobs ran", got, n)
	}
}

func TestDefaultWorkers(t *testing.T) {
	defer sweep.SetDefaultWorkers(0)
	sweep.SetDefaultWorkers(3)
	if got := sweep.DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers = %d, want 3", got)
	}
	sweep.SetDefaultWorkers(0)
	if got := sweep.DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers = %d, want >= 1 (GOMAXPROCS)", got)
	}
}

// ohpDigest runs one full OHP scenario and digests everything observable:
// the verified results, the aggregate statistics, and an FNV hash of the
// complete event trace. Any divergence between two runs of the same seed —
// from scheduling, shared state, or nondeterministic iteration — changes
// the digest.
func ohpDigest(t *testing.T, seed int64) string {
	t.Helper()
	res, err := hds.RunOHP(hds.OHPExperiment{
		IDs:     ident.Balanced(6, 3),
		Crashes: map[hds.PID]hds.Time{1: 30},
		GST:     50, Delta: 3,
		Seed:    seed,
		Horizon: 3000,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "stab=%d leaderstab=%d leader=%v to=%v ", res.TrustedStabilization,
		res.LeaderStabilization, res.Leader, res.FinalTimeouts)
	fmt.Fprintf(h, "bcast=%d deliver=%d drop=%d ", res.Stats.Broadcasts, res.Stats.Delivered, res.Stats.Dropped)
	// Per-tag counts live in a map: fold them commutatively (XOR) so the
	// digest does not depend on Go's randomized iteration order.
	var tags uint64
	//detlint:ignore maprange XOR of per-entry hashes is commutative; each entry is hashed independently
	for tag, n := range res.Stats.ByTag {
		th := fnv.New64a()
		fmt.Fprintf(th, "%s=%d", tag, n)
		tags ^= th.Sum64()
	}
	fmt.Fprintf(h, "tags=%d", tags)
	return fmt.Sprintf("%x", h.Sum64())
}

// TestSweepSerialParallelIdenticalDigests reruns the same seeded scenarios
// serially and with many workers, twice each, and demands identical
// digests — the determinism contract on real simulator workloads.
func TestSweepSerialParallelIdenticalDigests(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	digest := func(workers int) []string {
		return sweep.MapOpt(sweep.Options{Workers: workers}, seeds, func(_ int, s int64) string {
			return ohpDigest(t, s)
		})
	}
	serial := digest(1)
	for run := 0; run < 2; run++ {
		for _, workers := range []int{1, 4, 16} {
			if got := digest(workers); !reflect.DeepEqual(got, serial) {
				t.Fatalf("digests diverged: workers=%d run=%d\n got %v\nwant %v", workers, run, got, serial)
			}
		}
	}
}

// TestSweepTraceEventsIdentical compares full event traces — not just
// digests — between a serial and a heavily parallel sweep of raw engines.
func TestSweepTraceEventsIdentical(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	runAll := func(workers int) [][]trace.Event {
		return sweep.MapOpt(sweep.Options{Workers: workers}, seeds, func(_ int, s int64) []trace.Event {
			rec := trace.NewRecorder()
			eng := sim.New(sim.Config{IDs: ident.Balanced(5, 2), Net: sim.Async{MaxDelay: 7}, Seed: s, Recorder: rec})
			for i := 0; i < 5; i++ {
				eng.AddProcess(&pollster{})
			}
			eng.CrashAt(2, 40)
			eng.Run(300)
			return rec.Events()
		})
	}
	serial, parallel := runAll(1), runAll(8)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("seed %d: traces differ between serial and parallel sweeps", seeds[i])
		}
	}
}

// pollster broadcasts every 5 units forever (enough traffic to make any
// cross-engine interference visible in the trace).
type pollster struct{ env sim.Environment }

type ping struct{}

func (ping) MsgTag() string { return "PING" }

func (p *pollster) Init(env sim.Environment) {
	p.env = env
	env.Broadcast(ping{})
	env.SetTimer(5, 0)
}
func (p *pollster) OnMessage(any) {}
func (p *pollster) OnTimer(tag int) {
	p.env.Broadcast(ping{})
	p.env.SetTimer(5, tag)
}

// TestChurnHeavyTailSweepDeterminism pins the determinism contract on the
// new workload families: crash-recovery churn (with OnRecover callbacks
// and timer epochs), truncated heavy-tailed delays, and an n=1000 engine —
// swept serially and in parallel, the digests must match byte for byte.
func TestChurnHeavyTailSweepDeterminism(t *testing.T) {
	scenarios := []func() string{
		func() string { // Figure 6 detector under churn
			res, err := hds.RunOHP(hds.OHPExperiment{
				IDs:   ident.Balanced(12, 4),
				Churn: hds.ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 40, Up: 60, Stagger: 7},
				Seed:  1, Horizon: 2000,
			})
			return fmt.Sprintf("churn-ohp %+v %v", res, err)
		},
		func() string { // heavy-tailed delays under the same detector
			res, err := hds.RunOHP(hds.OHPExperiment{
				IDs:     ident.Balanced(6, 3),
				Crashes: map[hds.PID]hds.Time{1: 30},
				Net:     sim.Pareto{Scale: 2, Alpha: 1.5, Cap: 15},
				Seed:    2, Horizon: 12000,
			})
			return fmt.Sprintf("pareto-ohp %d %d %d %v", res.TrustedStabilization,
				res.LeaderStabilization, res.Stats.Broadcasts, err)
		},
		func() string { // n=1000: churn + heavy tail on the heartbeat engine
			res, err := hds.RunHeartbeatChurn(hds.HeartbeatExperiment{
				IDs:   ident.Balanced(1000, 50),
				Churn: hds.ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 5, Down: 10},
				Net:   sim.Pareto{Scale: 1, Alpha: 1.3, Cap: 40},
				Seed:  3, Period: 12, Horizon: 24, MaxEvents: 20_000_000,
			})
			return fmt.Sprintf("hb-1000 %+v %v", res, err)
		},
		func() string { // consensus under churn: Fig. 8 with the rejoin protocol
			res, err := hds.RunFig8(hds.Fig8Experiment{
				IDs: ident.Balanced(5, 2), T: 2,
				Churn: hds.ChurnSpec{Fraction: 0.3, Cycles: 1, Start: 2, Down: 60},
				Net:   sim.Async{MaxDelay: 8}, Seed: 4,
			})
			return fmt.Sprintf("churn-fig8 %+v %v", res, err)
		},
		func() string { // consensus under churn: Fig. 9, final-down churners
			res, err := hds.RunFig9(hds.Fig9Experiment{
				IDs:   ident.Balanced(6, 3),
				Churn: hds.ChurnSpec{Fraction: 0.34, Cycles: 2, Start: 2, Down: 30, Up: 40, FinalDown: true},
				Net:   sim.Async{MaxDelay: 8}, Seed: 5,
			})
			return fmt.Sprintf("churn-fig9 %+v %v", res, err)
		},
	}
	run := func(workers int) []string {
		return sweep.MapOpt(sweep.Options{Workers: workers}, scenarios, func(_ int, f func() string) string {
			return f()
		})
	}
	serial := run(1)
	for _, d := range serial {
		// Every digest ends with the scenario's error, "%v"-formatted.
		if !strings.HasSuffix(d, "<nil>") {
			t.Fatalf("scenario failed: %s", d)
		}
	}
	for _, workers := range []int{4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: digests diverged\n got %v\nwant %v", workers, got, serial)
		}
	}
}

// TestExperimentTablesIdenticalAcrossWorkerCounts builds a representative
// subset of the experiment tables under different default worker counts
// and demands byte-identical markdown.
func TestExperimentTablesIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment tables")
	}
	defer sweep.SetDefaultWorkers(0)
	builders := []func() (experiments.Table, error){
		experiments.E5RelationMatrix,
		experiments.E6DiamondHPbar,
		experiments.E9Fig8Consensus,
		experiments.E10Fig9Consensus,
		experiments.E20ChurnConsensus,
	}
	render := func(workers int) []string {
		sweep.SetDefaultWorkers(workers)
		out := make([]string, len(builders))
		for i, b := range builders {
			table, err := b()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			out[i] = table.Markdown()
		}
		return out
	}
	serial := render(1)
	for _, workers := range []int{0, 2, 8} {
		got := render(workers)
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: table %d markdown differs from serial build", workers, i)
			}
		}
	}
}
