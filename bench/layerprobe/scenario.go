package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/hunt"
)

// loadScenario reads one bench/scenarios file and puts it through the
// same admission path every fuzzer mutant takes.
func (c *ctx) loadScenario(name string) (hunt.Scenario, error) {
	var s hunt.Scenario
	b, err := os.ReadFile(filepath.Join(c.root, "bench", "scenarios", name))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	s = hunt.Sanitize(s)
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// runOK runs a scenario that must verify and times it.
func runOK(s hunt.Scenario) (hunt.Outcome, time.Duration, error) {
	start := time.Now()
	o := s.Run()
	d := time.Since(start)
	if !o.OK {
		return o, d, fmt.Errorf("%s: %s", s.Fingerprint(), o.Verdict)
	}
	return o, d, nil
}

// probeOHP times the Figure 6 detector, crash-stop and under churn.
func probeOHP(c *ctx, _ int) error {
	s, err := c.loadScenario("ohp.json")
	if err != nil {
		return err
	}
	s.Seed = c.seed
	o, d, err := runOK(s)
	if err != nil {
		return err
	}
	c.set("fd.ohp_run_us", us(d))
	c.set("fd.ohp_bcast", float64(o.Stats.Broadcasts))

	if s, err = c.loadScenario("ohp_churn.json"); err != nil {
		return err
	}
	s.Seed = c.seed
	if _, d, err = runOK(s); err != nil {
		return err
	}
	c.set("fd.ohp_churn_run_ms", ms(d))
	return nil
}

// lastDecision parses the virtual time of the last decision out of a
// consensus verdict line ("... span=13..14 ...").
func lastDecision(verdict string) (int64, error) {
	for _, f := range strings.Fields(verdict) {
		if rest, ok := strings.CutPrefix(f, "span="); ok {
			var first, last int64
			if _, err := fmt.Sscanf(rest, "%d..%d", &first, &last); err != nil {
				return 0, fmt.Errorf("bad span in %q", verdict)
			}
			return last, nil
		}
	}
	return 0, fmt.Errorf("no span in %q", verdict)
}

// probeCore runs the leader-group-crash shape of both consensus
// algorithms over consecutive seeds. Host time is a mean per run; rounds,
// broadcasts per decision and decision time are simulated quantities and
// must not move under any change that only makes the host faster.
func probeCore(c *ctx, span int) error {
	for _, kind := range []string{"fig8", "fig9"} {
		s, err := c.loadScenario(kind + "_leader_crash.json")
		if err != nil {
			return err
		}
		child := c.rec.Start("core."+kind, span, "")
		var total time.Duration
		var rounds, bcast, decisions int
		var vt int64
		for i := 0; i < c.sz.coreSeeds; i++ {
			s.Seed = c.seed + int64(i)
			o, d, err := runOK(s)
			if err != nil {
				c.rec.End(child)
				return err
			}
			last, err := lastDecision(o.Verdict)
			if err != nil {
				c.rec.End(child)
				return err
			}
			total += d
			rounds += o.Round
			bcast += o.Stats.Broadcasts
			decisions += o.Stats.Decisions
			vt += last
		}
		c.rec.End(child)
		if decisions == 0 {
			return fmt.Errorf("%s: no decisions recorded", kind)
		}
		k := float64(c.sz.coreSeeds)
		c.set("core."+kind+"_run_us", us(total)/k)
		c.set("core."+kind+"_rounds", float64(rounds)/k)
		c.set("core."+kind+"_bcast_per_decision", float64(bcast)/float64(decisions))
		c.set("core."+kind+"_vt_decide", float64(vt)/k)
	}
	return nil
}

// probeLossy runs Fig. 9 on fair-lossy links: the phase broadcasts are
// sent once, a lost one is never repeated, so the run polls to its
// horizon without deciding: hunt30's most expensive scenario shape.
func probeLossy(c *ctx, _ int) error {
	s, err := c.loadScenario("fig9_lossy.json")
	if err != nil {
		return err
	}
	if c.sz.lossyHorizon > 0 {
		s.Horizon = c.sz.lossyHorizon
	}
	start := time.Now()
	o := s.Run()
	d := time.Since(start)
	if o.OK || o.Class != hunt.ClassLossLiveness {
		return fmt.Errorf("lossy fig9 no longer polls to its horizon: %s", o.Verdict)
	}
	st := o.Stats
	c.set("core.fig9_lossy_horizon_s", d.Seconds())
	c.set("core.fig9_lossy_events", float64(st.Broadcasts+st.Delivered+st.Dropped+st.Timers+st.TimerDrops+st.Crashes+st.Recoveries))
	return nil
}

// probeHuntSeeds runs every structured seed on its own. Their sum is the
// serial cost of a campaign's first generation; the largest is the
// straggler that bounds its wall time on any number of workers.
func probeHuntSeeds(c *ctx, span int) error {
	var sum, worst time.Duration
	seeds := hunt.StructuredSeeds()
	if n := c.sz.huntSeeds; n > 0 && n < len(seeds) {
		seeds = seeds[:n]
	}
	for _, s := range seeds {
		child := c.rec.Start("hunt.seed "+s.Fingerprint(), span, "")
		o := s.Run()
		d := c.rec.End(child)
		if o.Reportable() {
			return fmt.Errorf("structured seed fails: %s: %s", s.Fingerprint(), o.Verdict)
		}
		sum += d
		worst = max(worst, d)
	}
	c.set("hunt.seed_sum_s", sum.Seconds())
	c.set("hunt.seed_max_s", worst.Seconds())
	return nil
}

// probeMutate times the fuzzer's per-mutant bookkeeping, no execution.
func probeMutate(c *ctx, _ int) error {
	seeds := hunt.StructuredSeeds()
	rng := rand.New(rand.NewSource(c.seed))
	start := time.Now()
	for i := 0; i < c.sz.mutateDraws; i++ {
		m := hunt.Sanitize(hunt.Mutate(seeds[i%len(seeds)], rng))
		if err := m.Validate(); err != nil {
			return fmt.Errorf("mutant %d is not admissible: %w", i, err)
		}
	}
	c.set("hunt.mutate_us", us(time.Since(start))/float64(c.sz.mutateDraws))
	return nil
}

// probeCorpus replays the checked-in regression corpus against its
// pinned verdicts.
func probeCorpus(c *ctx, _ int) error {
	files, err := filepath.Glob(filepath.Join(c.root, "internal", "hunt", "testdata", "corpus", "*.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no corpus entries under %s", c.root)
	}
	sort.Strings(files)
	if n := c.sz.corpusEntries; n > 0 && n < len(files) {
		files = files[:n]
	}
	start := time.Now()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		e, err := hunt.DecodeEntry(b)
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if err := hunt.Replay(e); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	c.set("hunt.corpus_replay_s", time.Since(start).Seconds())
	return nil
}
