// Package replay re-verifies recorded executions offline: from a v2 trace
// (scenario fingerprint + event stream) alone it resolves the scenario the
// live run verified against — through internal/scenario, the resolver
// cmd/hdsim itself uses — reconstructs every checker input from the
// events, and re-runs the checkers. The rendered verdict block is produced
// by the same renderers the live driver prints through, so a healthy
// replay is byte-identical to the live report (minus engine-only
// counters), and any difference is a determinism regression, not a
// formatting accident.
package replay

import (
	"fmt"
	"io"

	hds "repro"
	"repro/internal/check"
	"repro/internal/fd"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// Verify re-runs a recorded execution's property checkers from its trace
// alone — no engine, no re-execution — and writes the verdict report to w
// in the live driver's format. The event stream is consumed in one pass
// with state linear in the process count (never in the event count), so a
// population-scale spilled trace replays in constant memory exactly like
// it was recorded. A verification failure is returned as an error, with
// the same message the live checkers would have produced.
func Verify(m *trace.Meta, src trace.EventSource, w io.Writer) error {
	sc, err := scenario.Resolve(m)
	if err != nil {
		return err
	}
	WriteHeader(w, sc)
	var res hds.Result
	switch sc.Algo {
	case "ohp":
		res, err = verifyOHP(sc, src)
	case "heartbeat":
		res, err = verifyHeartbeat(sc, src)
	default:
		res, err = verifyConsensus(sc, src)
	}
	if err != nil {
		return err
	}
	WriteReport(w, sc, res, false)
	return nil
}

// drain feeds every event to observe, a batch at a time, and returns what
// the live recorder would have counted: RecordBatch counts through the
// definition Record counts through, so the replayed Stats agree with the
// live ones by construction. A batch is valid only during the call.
func drain(src trace.EventSource, observe func(batch []trace.Event)) (hds.Stats, error) {
	var rec trace.Recorder
	err := trace.DrainBatches(src, func(batch []trace.Event) error {
		rec.RecordBatch(batch)
		observe(batch)
		return nil
	})
	return rec.Stats(), err
}

func verifyConsensus(sc *scenario.Scenario, src trace.EventSource) (hds.Result, error) {
	n := sc.IDs.N()
	tracker := check.NewOutcomeTracker(n)
	stats, err := drain(src, func(batch []trace.Event) {
		for _, e := range batch {
			tracker.Observe(e)
		}
	})
	if err != nil {
		return hds.Result{}, err
	}
	if err := tracker.Err(); err != nil {
		return hds.Result{}, err
	}
	_, truth, err := hds.FaultPattern(sc.IDs, sc.Churn, sc.Crashes, sc.Horizon)
	if err != nil {
		return hds.Result{}, err
	}
	res, err := hds.VerifyConsensus(truth, sc.Churn.Fraction > 0, hds.DefaultProposals(n), tracker.Outcomes())
	res.Stats, res.Recoveries = stats, stats.Recoveries
	return res, err
}

func verifyOHP(sc *scenario.Scenario, src trace.EventSource) (hds.Result, error) {
	n := sc.IDs.N()
	trusted := fd.NewTrustedReplayer(n)
	leader := fd.NewLeaderReplayer(n)
	stats, err := drain(src, func(batch []trace.Event) {
		for _, e := range batch {
			trusted.Observe(e)
			leader.Observe(e)
		}
	})
	if err != nil {
		return hds.Result{}, err
	}
	if err := trusted.Err(); err != nil {
		return hds.Result{}, err
	}
	if err := leader.Err(); err != nil {
		return hds.Result{}, err
	}
	_, truth, err := hds.FaultPattern(sc.IDs, sc.Churn, sc.Crashes, sc.Horizon)
	if err != nil {
		return hds.Result{}, err
	}
	res, err := hds.VerifyOHP(truth, trusted.Probe(), leader.Probe())
	res.Stats, res.Recoveries = stats, stats.Recoveries
	return res, err
}

func verifyHeartbeat(sc *scenario.Scenario, src trace.EventSource) (hds.Result, error) {
	n := sc.IDs.N()
	heard := make([]int, n)
	stats, err := drain(src, func(batch []trace.Event) {
		for i := range batch {
			if e := &batch[i]; e.Kind == trace.KindDeliver && e.PID >= 0 && e.PID < n {
				heard[e.PID]++
			}
		}
	})
	if err != nil {
		return hds.Result{}, err
	}
	schedule, truth, err := hds.FaultPattern(sc.IDs, sc.Churn, nil, sc.Horizon)
	if err != nil {
		return hds.Result{}, err
	}
	want := 0
	for _, ev := range schedule {
		if ev.Recover {
			want++
		}
	}
	if stats.Recoveries != want {
		return hds.Result{}, fmt.Errorf("replay: trace records %d recoveries but the schedule fires %d", stats.Recoveries, want)
	}
	if err := hds.VerifyHeartbeat(truth, func(p hds.PID) int { return heard[p] }); err != nil {
		return hds.Result{}, err
	}
	return hds.Result{
		EventuallyUp: len(truth.EventuallyUp()),
		Correct:      len(truth.Correct()),
		Recoveries:   stats.Recoveries,
		Stats:        stats,
	}, nil
}
