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
	"repro/internal/sweep"
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

// VerifyFile is Verify over a binary trace file of the given size, read
// through r. A finalized heartbeat trace is counted in frame-range shards,
// one per worker of the default sweep pool and at most one per frame, and
// the shards' counts are summed in shard order: the heartbeat verdict
// reads only counts, so the sum is what one pass would count. That needs
// the index to prove the shards are the stream (trace.TraceFile.
// DrainShards). Every other trace streams through Verify: one that does
// not open as finalized (unfinalized or cut short), another algorithm (the
// detector and consensus checkers read events in order), a single shard,
// or a layout the index does not prove. Nothing is written before that
// choice, so the report and the error are Verify's either way. A header
// that does not decode is returned as a *HeaderError.
func VerifyFile(r io.ReaderAt, size int64, w io.Writer) error {
	if tf, err := trace.OpenTraceFile(r, size); err == nil {
		if done, err := verifyShards(tf, w); done {
			return err
		}
	}
	src, err := trace.NewBinaryReader(io.NewSectionReader(r, 0, size))
	if err != nil {
		return &HeaderError{err}
	}
	return Verify(src.Meta(), src, w)
}

// HeaderError is VerifyFile's error for a trace whose header does not
// decode: there was nothing to verify.
type HeaderError struct{ Err error }

func (e *HeaderError) Error() string { return e.Err.Error() }
func (e *HeaderError) Unwrap() error { return e.Err }

// verifyShards verifies a finalized heartbeat trace shard by shard and
// reports done; it reports not done, having written nothing, when the
// trace must stream instead.
func verifyShards(tf *trace.TraceFile, w io.Writer) (done bool, err error) {
	sc, err := scenario.Resolve(tf.Meta())
	if err != nil || sc.Algo != "heartbeat" {
		return false, nil
	}
	k := min(sweep.DefaultWorkers(), len(tf.Index().Frames))
	if k < 2 {
		return false, nil
	}
	counts := make([]*heartbeatCount, k)
	fns := make([]func([]trace.Event), k)
	for s := range counts {
		counts[s] = newHeartbeatCount(sc.IDs.N())
		fns[s] = counts[s].observe
	}
	if tf.DrainShards(fns) != nil {
		return false, nil
	}
	WriteHeader(w, sc)
	res, err := judgeHeartbeat(sc, counts)
	if err != nil {
		return true, err
	}
	WriteReport(w, sc, res, false)
	return true, nil
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
	res, err := hds.VerifyConsensus(truth, sc.Churn.Fraction > 0, sc.Proposals, tracker.Outcomes())
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
	c := newHeartbeatCount(sc.IDs.N())
	if err := trace.DrainBatches(src, func(batch []trace.Event) error {
		c.observe(batch)
		return nil
	}); err != nil {
		return hds.Result{}, err
	}
	return judgeHeartbeat(sc, []*heartbeatCount{c})
}

// heartbeatCount is all the heartbeat verdict reads from a trace: what the
// live recorder would have counted, deliveries heard per process, and the
// first delivery to a process outside [0,n). Counts of consecutive runs
// of events add up, so a trace can be counted in pieces (judgeHeartbeat).
type heartbeatCount struct {
	rec   trace.Recorder
	heard []int
	err   error
}

func newHeartbeatCount(n int) *heartbeatCount { return &heartbeatCount{heard: make([]int, n)} }

// observe counts a batch; it keeps no reference to it.
func (c *heartbeatCount) observe(batch []trace.Event) {
	c.rec.RecordBatch(batch)
	heard := c.heard
	for i := range batch {
		if e := &batch[i]; e.Kind == trace.KindDeliver {
			if uint(e.PID) < uint(len(heard)) {
				heard[e.PID]++
			} else if c.err == nil {
				c.err = fmt.Errorf("replay: deliver event for process %d outside [0,%d)", e.PID, len(heard))
			}
		}
	}
}

// judgeHeartbeat sums the counts of a whole trace's consecutive pieces, in
// order, and rules on them the way the live driver rules on its run, less
// the engine bookkeeping a trace does not carry.
func judgeHeartbeat(sc *scenario.Scenario, counts []*heartbeatCount) (hds.Result, error) {
	for _, c := range counts {
		if c.err != nil {
			return hds.Result{}, c.err
		}
	}
	stats, heard := counts[0].rec.Stats(), counts[0].heard
	for _, c := range counts[1:] {
		stats.Add(c.rec.Stats())
		for p, h := range c.heard {
			heard[p] += h
		}
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
