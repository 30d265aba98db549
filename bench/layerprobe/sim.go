package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/bench/spec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/sim"
)

// beat is the heartbeat payload; the tag keeps traced runs comparable
// with hdsim's.
type beat struct{}

func (beat) MsgTag() string { return "BEAT" }

// beater is the bench-owned heartbeat process: one broadcast per period
// from the first `beaters` processes, every process counting deliveries.
// It restarts its chain after recovery under a new timer epoch, so exactly
// one chain is live per process.
type beater struct {
	env    sim.Environment
	period sim.Time
	epoch  int
	heard  int
	beats  bool
}

func (b *beater) Init(env sim.Environment) {
	b.env = env
	if b.beats {
		b.fire()
	}
}

func (b *beater) fire() {
	b.env.Broadcast(beat{})
	b.env.SetTimer(b.period, b.epoch)
}

func (b *beater) OnMessage(any) { b.heard++ }

func (b *beater) OnTimer(tag int) {
	if tag == b.epoch {
		b.fire()
	}
}

func (b *beater) OnRecover() {
	if b.beats {
		b.epoch++
		b.fire()
	}
}

// ticker only re-arms a timer: heap and dispatch cost with no fan-out.
type ticker struct {
	env   sim.Environment
	ticks int
}

func (t *ticker) Init(env sim.Environment) { t.env = env; env.SetTimer(1, 0) }
func (t *ticker) OnMessage(any)            {}
func (t *ticker) OnTimer(int)              { t.ticks++; t.env.SetTimer(1, 0) }

// beatRun is one heartbeat engine run's configuration.
type beatRun struct {
	n, l, beaters int
	net           sim.Model
	churn         sim.ChurnSpec
	horizon       sim.Time
	seed          int64
	probe         bool // attach an fd.StreamProbe over the heard counters
}

// beatResult is what one run cost.
type beatResult struct {
	setup, run     time.Duration
	events, queue  int
	mallocs, bytes uint64
}

const beatPeriod = 15

// sparseChurn is hdsim's "-churn 0.05:1:12:20:0".
var sparseChurn = sim.ChurnSpec{Fraction: 0.05, Cycles: 1, Down: 12, Up: 20, Stagger: 0}

func runBeats(r beatRun) (beatResult, error) {
	var res beatResult
	start := time.Now()
	eng := sim.New(sim.Config{IDs: ident.Balanced(r.n, r.l), Net: r.net, Seed: r.seed, MaxEvents: 100_000_000})
	procs := make([]*beater, r.n)
	for i := range procs {
		procs[i] = &beater{period: beatPeriod, beats: i < r.beaters}
		eng.AddProcess(procs[i])
	}
	if r.churn.Fraction > 0 {
		eng.ApplyChurn(r.churn.Events(r.n))
	}
	res.setup = time.Since(start)
	if r.probe {
		fd.NewStreamProbe(eng, r.n, func(p sim.PID) (int, bool) {
			if eng.Crashed(p) {
				return 0, false
			}
			return procs[p].heard, true
		}, func(a, b int) bool { return a == b })
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	eng.Run(r.horizon)
	res.run = time.Since(start)
	runtime.ReadMemStats(&after)

	res.events, res.queue = eng.Processed(), eng.MaxQueueLen()
	res.mallocs, res.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if eng.Stopped() != sim.StopHorizon {
		return res, fmt.Errorf("run stopped on %v, want horizon", eng.Stopped())
	}
	heard := 0
	for _, p := range procs {
		heard += p.heard
	}
	if heard == 0 || heard > res.events {
		return res, fmt.Errorf("processes heard %d beats over %d events", heard, res.events)
	}
	return res, nil
}

func nsPerEvent(d time.Duration, events int) float64 { return float64(d) / float64(events) }

// probeSparse times the live20k shape (n=20000, 100 beaters, async[1..8],
// 5% churn) with no recorder, then again with a streaming probe attached.
// Bare and probed runs alternate and the faster of each side is kept, so
// a slow host phase lands on both sides of the subtraction.
func probeSparse(c *ctx, span int) error {
	cfg := beatRun{
		n: c.sz.sparseN, l: c.sz.sparseL, beaters: c.sz.sparseBeaters,
		net: sim.Async{MaxDelay: 8}, churn: sparseChurn, horizon: 60, seed: c.seed,
	}
	var bare, probed beatResult
	for i := 0; i < c.sz.sparseRuns; i++ {
		for _, withProbe := range []bool{false, true} {
			cfg.probe = withProbe
			name := "sim.sparse.bare"
			if withProbe {
				name = "sim.sparse.probed"
			}
			child := c.rec.Start(name, span, "")
			res, err := runBeats(cfg)
			c.rec.End(child)
			if err != nil {
				return err
			}
			keep := &bare
			if withProbe {
				keep = &probed
			}
			if i == 0 || res.run < keep.run {
				*keep = res
			}
		}
	}
	if bare.events != probed.events {
		return fmt.Errorf("attaching a probe changed the event count: %d vs %d", bare.events, probed.events)
	}
	ev := float64(bare.events)
	c.set("sim.sparse_ns_per_event", nsPerEvent(bare.run, bare.events))
	c.set("sim.sparse_events", ev)
	c.set("sim.sparse_max_queue", float64(bare.queue))
	c.set("sim.sparse_allocs_per_event", float64(bare.mallocs)/ev)
	c.set("sim.sparse_bytes_per_event", float64(bare.bytes)/ev)
	c.set("sim.setup_s", bare.setup.Seconds())
	c.set("fd.streamprobe_ns_per_event", nsPerEvent(probed.run-bare.run, bare.events))
	return nil
}

// probeDense has every process beat: many broadcasts in flight at once,
// the regime a per-broadcast table would make more expensive.
func probeDense(c *ctx, _ int) error {
	var res beatResult
	d, err := best(c.sz.repeats, func() (time.Duration, error) {
		var err error
		res, err = runBeats(beatRun{
			n: c.sz.denseN, l: 10, beaters: c.sz.denseN,
			net: sim.Async{MaxDelay: 8}, horizon: 40, seed: c.seed,
		})
		return res.run, err
	})
	if err != nil {
		return err
	}
	c.set("sim.dense_ns_per_event", nsPerEvent(d, res.events))
	c.set("sim.dense_max_queue", float64(res.queue))
	return nil
}

// probeTimer runs timers only: what the small consensus runs of hunt30
// spend in the engine.
func probeTimer(c *ctx, _ int) error {
	events := 0
	d, err := best(c.sz.repeats, func() (time.Duration, error) {
		eng := sim.New(sim.Config{IDs: ident.Balanced(c.sz.timerN, 10), Seed: c.seed, MaxEvents: 100_000_000})
		for i := 0; i < c.sz.timerN; i++ {
			eng.AddProcess(&ticker{})
		}
		start := time.Now()
		eng.Run(c.sz.timerHorizon)
		d := time.Since(start)
		events = eng.Processed()
		if want := c.sz.timerN * int(c.sz.timerHorizon); events < want {
			return d, fmt.Errorf("timer run processed %d events, want at least %d", events, want)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	c.set("sim.timer_ns_per_event", nsPerEvent(d, events))
	return nil
}

// netModel builds the named model of spec.NetModels.
func netModel(name string, n int) sim.Model {
	switch name {
	case "async":
		return sim.Async{MaxDelay: 8}
	case "partialsync":
		return sim.PartialSync{Delta: 3}
	case "lognormal":
		return sim.LogNormal{}
	case "pareto":
		return sim.Pareto{}
	case "alternating":
		return sim.Alternating{}
	case "asymmetric":
		return sim.AsymmetricLinks{}
	case "lossy":
		return sim.Lossy{P: 0.1}
	case "partition":
		return sim.Partition{Base: sim.Async{MaxDelay: 8}, Windows: []sim.PartitionWindow{{From: 10, To: 30, Cut: sim.PID(n / 2)}}}
	}
	panic("layerprobe: unknown net model " + name)
}

// probeNets times the same beat schedule under each network model.
func probeNets(c *ctx, span int) error {
	for _, name := range spec.NetModels {
		child := c.rec.Start("sim.net."+name, span, "")
		res, err := runBeats(beatRun{
			n: c.sz.netN, l: 10, beaters: c.sz.netBeaters,
			net: netModel(name, c.sz.netN), horizon: 45, seed: c.seed,
		})
		c.rec.End(child)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		c.set("sim.net."+name+"_ns_per_event", nsPerEvent(res.run, res.events))
	}
	return nil
}
