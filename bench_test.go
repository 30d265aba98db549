// Benchmarks: one per experiment in DESIGN.md's index (E1–E13), i.e. one
// per figure/theorem of the paper. Each iteration executes a full verified
// scenario; custom metrics surface the quantities the corresponding
// EXPERIMENTS.md table reports (virtual stabilization times, rounds,
// broadcast counts), so `go test -bench=. -benchmem` regenerates the
// shapes end to end.
package hds_test

import (
	"testing"

	hds "repro"
	"repro/internal/experiments"
	"repro/internal/fd/oracle"
	"repro/internal/reduce"
)

// benchTable runs one experiment table builder per iteration and fails the
// bench if any row reports a verification failure.
func benchTable(b *testing.B, build func() (experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := build()
		if err != nil {
			b.Fatalf("%s: %v", t.ID, err)
		}
		for _, row := range t.Rows {
			for _, cell := range row {
				if len(cell) > 0 && cell[0] == 0xE2 && cell[1] == 0x9C && cell[2] == 0x97 { // "✗"
					b.Fatalf("%s: %v", t.ID, row)
				}
			}
		}
	}
}

func BenchmarkE1_Fig1SigmaToHSigmaKnown(b *testing.B) {
	benchTable(b, experiments.E1SigmaToHSigmaKnown)
}

func BenchmarkE2_Fig2SigmaToHSigmaUnknown(b *testing.B) {
	benchTable(b, experiments.E2SigmaToHSigmaUnknown)
}

func BenchmarkE3_Fig3AliveList(b *testing.B) {
	benchTable(b, experiments.E3AliveList)
}

func BenchmarkE4_Fig4HSigmaToSigma(b *testing.B) {
	benchTable(b, experiments.E4HSigmaToSigma)
}

func BenchmarkE5_RelationMatrix(b *testing.B) {
	rels := reduce.All()
	for i := 0; i < b.N; i++ {
		for _, rel := range rels {
			if _, err := rel.Run(int64(i%4) + 1); err != nil {
				b.Fatalf("%s→%s: %v", rel.From, rel.To, err)
			}
		}
	}
}

func BenchmarkE6_Fig6DiamondHPbar(b *testing.B) {
	var stab, traffic int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunOHP(hds.OHPExperiment{
			IDs:     hds.BalancedIDs(6, 3),
			Crashes: map[hds.PID]hds.Time{1: 30},
			GST:     50, Delta: 3,
			Seed:    int64(i),
			Horizon: 6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		stab += res.TrustedStabilization
		traffic += int64(res.Stats.Broadcasts)
	}
	b.ReportMetric(float64(stab)/float64(b.N), "vt-stabilize/op")
	b.ReportMetric(float64(traffic)/float64(b.N), "broadcasts/op")
}

func BenchmarkE7_HOmegaFromOHP(b *testing.B) {
	var stab int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunOHP(hds.OHPExperiment{
			IDs:     hds.BalancedIDs(6, 3),
			Crashes: map[hds.PID]hds.Time{0: 40},
			GST:     50, Delta: 3,
			Seed:    int64(i),
			Horizon: 6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		stab += res.LeaderStabilization
	}
	b.ReportMetric(float64(stab)/float64(b.N), "vt-leader-stabilize/op")
}

func BenchmarkE8_Fig7HSigma(b *testing.B) {
	var stab int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunHSigma(hds.HSigmaExperiment{
			IDs:        hds.BalancedIDs(6, 3),
			CrashSteps: map[hds.PID]hds.CrashStep{1: {Step: 3, DeliverProb: 0.5}},
			Steps:      12,
			Seed:       int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		stab += res.StabilizationStep
	}
	b.ReportMetric(float64(stab)/float64(b.N), "steps-stabilize/op")
}

func BenchmarkE9_Fig8Consensus(b *testing.B) {
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunFig8(hds.Fig8Experiment{
			IDs:       hds.BalancedIDs(5, 2),
			T:         2,
			Crashes:   map[hds.PID]hds.Time{1: 30},
			Stabilize: 80,
			Adversary: oracle.AdversaryRotate,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(res.Report.MaxRound)
		msgs += int64(res.Stats.Broadcasts)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "broadcasts/op")
}

func BenchmarkE10_Fig9Consensus(b *testing.B) {
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunFig9(hds.Fig9Experiment{
			IDs:       hds.BalancedIDs(6, 3),
			Crashes:   map[hds.PID]hds.Time{0: 20, 1: 35, 2: 50, 3: 65}, // t ≥ n/2
			Stabilize: 140,
			Adversary: oracle.AdversaryRotate,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(res.Report.MaxRound)
		msgs += int64(res.Stats.Broadcasts)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "broadcasts/op")
}

func BenchmarkE11_HomonymyExtremes(b *testing.B) {
	benchTable(b, experiments.E11HomonymyExtremes)
}

func BenchmarkE12_EndToEndHPS(b *testing.B) {
	var decided int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunFig8(hds.Fig8Experiment{
			IDs:       hds.BalancedIDs(5, 2),
			T:         2,
			Crashes:   map[hds.PID]hds.Time{3: 40},
			Net:       hds.PartialSync{GST: 100, Delta: 3, PreMax: 120},
			Detectors: hds.MessagePassingDetectors,
			Seed:      int64(i),
			Horizon:   3_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		decided += res.Report.LastDecision
	}
	b.ReportMetric(float64(decided)/float64(b.N), "vt-decide/op")
}

func BenchmarkE13_APReductions(b *testing.B) {
	benchTable(b, experiments.E13APReductions)
}

// BenchmarkSubstrate_* profile the building blocks so regressions in the
// simulator itself are visible separately from algorithm behaviour.

func BenchmarkSubstrate_SimBroadcastStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := hds.RunOHP(hds.OHPExperiment{
			IDs: hds.BalancedIDs(12, 4),
			GST: 20, Delta: 2,
			Seed:    int64(i),
			Horizon: 1500,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkSubstrate_Fig8NoFailures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hds.RunFig8(hds.Fig8Experiment{
			IDs: hds.BalancedIDs(7, 3), T: 3, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14_CoordinationAblation(b *testing.B) {
	benchTable(b, experiments.E14CoordinationAblation)
}

func BenchmarkE15_LeaderGroupSize(b *testing.B) {
	benchTable(b, experiments.E15LeaderGroupSize)
}

func BenchmarkE16_TimeoutAdaptation(b *testing.B) {
	// E16 contains an intentionally failing ablated variant; validate only
	// that the adaptive rows hold the class.
	for i := 0; i < b.N; i++ {
		t, err := experiments.E16TimeoutAdaptation()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range t.Rows {
			if row[0] == "adaptive (paper)" && row[2] != "yes" {
				b.Fatalf("adaptive variant failed: %v", row)
			}
		}
	}
}

func BenchmarkE17_PhaseMessageBreakdown(b *testing.B) {
	benchTable(b, experiments.E17PhaseMessageBreakdown)
}

func BenchmarkE18_ChurnSweep(b *testing.B) {
	benchTable(b, experiments.E18ChurnSweep)
}

func BenchmarkE19_HeavyTailDelays(b *testing.B) {
	benchTable(b, experiments.E19HeavyTailDelays)
}

func BenchmarkE20_ChurnConsensus(b *testing.B) {
	benchTable(b, experiments.E20ChurnConsensus)
}

// BenchmarkChurnConsensusFig8 measures one verified Fig. 8 churn run —
// crash, recovery, rejoin exchange, decision — in isolation from table
// rendering, so the rejoin path's cost is tracked per commit.
func BenchmarkChurnConsensusFig8(b *testing.B) {
	var after int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunFig8(hds.Fig8Experiment{
			IDs: hds.BalancedIDs(5, 2), T: 2,
			Churn: hds.ChurnSpec{Fraction: 0.3, Cycles: 1, Start: 2, Down: 60},
			Net:   hds.Async{MaxDelay: 8}, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		after += res.DecideAfterChurn
	}
	b.ReportMetric(float64(after)/float64(b.N), "vt-decide-after-churn/op")
}

// BenchmarkChurnEngine1000 measures the raw engine on the n=1000
// crash-recovery heartbeat scenario — the large-n hot path (deliver fan-out
// plus churn bookkeeping) in isolation, without table rendering.
func BenchmarkChurnEngine1000(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunHeartbeatChurn(hds.HeartbeatExperiment{
			IDs:   hds.BalancedIDs(1000, 50),
			Churn: hds.ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 5, Down: 12},
			Seed:  int64(i), Period: 15, Horizon: 40, MaxEvents: 20_000_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += int64(res.Processed)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// benchChurnEngineAt runs the population-scaling heartbeat scenario (a
// fixed beater pool, so event volume is Θ(beaters·n) and n is the
// stressed dimension) with streaming verification on — the E21 workload
// as a per-commit benchmark. The max-queue metric is the lazy fan-out
// witness: it must stay in the thousands at every n.
func benchChurnEngineAt(b *testing.B, n, l, beaters int, frac float64) {
	b.Helper()
	var events, maxQ int64
	for i := 0; i < b.N; i++ {
		res, err := hds.RunHeartbeatChurn(hds.HeartbeatExperiment{
			IDs:   hds.BalancedIDs(n, l),
			Churn: hds.ChurnSpec{Fraction: frac, Cycles: 1, Start: 5, Down: 12},
			Seed:  int64(i), Period: 15, Horizon: 45,
			Beaters: beaters, MaxEvents: 100_000_000, StreamVerify: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += int64(res.Processed)
		maxQ += int64(res.MaxQueue)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(maxQ)/float64(b.N), "max-queue/op")
}

func BenchmarkChurnEngine10k(b *testing.B) {
	benchChurnEngineAt(b, 10_000, 100, 100, 0.1)
}

func BenchmarkChurnEngine50k(b *testing.B) {
	benchChurnEngineAt(b, 50_000, 200, 100, 0.05)
}
