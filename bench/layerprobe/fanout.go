package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// smallRun is one fixed small engine run: the unit of work the sweep
// speed-up probe fans out.
func smallRun(seed int64) int {
	eng := sim.New(sim.Config{IDs: ident.Balanced(200, 10), Net: sim.Async{MaxDelay: 8}, Seed: seed})
	for i := 0; i < 200; i++ {
		eng.AddProcess(&beater{period: beatPeriod, beats: i < 20})
	}
	eng.Run(150)
	return eng.Processed()
}

// probeSweep measures the pool's per-item overhead on no-op items and
// its speed-up from one worker to two on real engine runs. The item
// function is the bench's own, so each run is a child span.
func probeSweep(c *ctx, span int) error {
	items := make([]int, c.sz.sweepItems)
	start := time.Now()
	out := sweep.MapOpt(sweep.Options{Workers: 2}, items, func(i, _ int) int { return i })
	d := time.Since(start)
	if len(out) != len(items) || out[len(out)-1] != len(items)-1 {
		return fmt.Errorf("sweep returned %d results for %d items", len(out), len(items))
	}
	c.set("sweep.item_overhead_ns", float64(d)/float64(len(items)))

	seeds := make([]int64, c.sz.sweepRuns)
	for i := range seeds {
		seeds[i] = c.seed + int64(i)
	}
	// Serial and parallel maps alternate and the faster of each is kept,
	// so a slow host phase cannot land on one side of the ratio only.
	var wall [3]time.Duration
	var events [3][]int
	for i := 0; i < c.sz.repeats; i++ {
		for _, workers := range []int{1, 2} {
			child := c.rec.Start(fmt.Sprintf("sweep.map workers=%d", workers), span, "")
			events[workers] = sweep.MapOpt(sweep.Options{Workers: workers}, seeds, func(_ int, seed int64) int {
				item := c.rec.Start("sweep.item", child, "")
				defer c.rec.End(item)
				return smallRun(seed)
			})
			if d := c.rec.End(child); i == 0 || d < wall[workers] {
				wall[workers] = d
			}
		}
	}
	for i := range seeds {
		if events[1][i] != events[2][i] {
			return fmt.Errorf("run %d processed %d events serially, %d in parallel", i, events[1][i], events[2][i])
		}
	}
	c.set("sweep.speedup_w2", float64(wall[1])/float64(wall[2]))
	return nil
}

// campaignRow is a flat, JSON-lossless row, like the CLIs' own.
type campaignRow struct {
	Seed   int64 `json:"seed"`
	Rounds int   `json:"rounds"`
	Bcast  int   `json:"broadcasts"`
}

func makeRow(i int) campaignRow { return campaignRow{Seed: int64(i), Rounds: i % 7, Bcast: 25 + i%50} }

// probeCampaign times the campaign layer around a trivial row function:
// canonical JSON and SHA-256 per row in memory, then the same campaign
// through four shard checkpoints on disk and their merge.
func probeCampaign(c *ctx, _ int) error {
	n := c.sz.campaignRows
	start := time.Now()
	mem, err := campaign.Run(campaign.Config{Workers: 2}, "bench-rows", n, makeRow)
	if err != nil {
		return err
	}
	c.set("campaign.row_overhead_us", us(time.Since(start))/float64(n))

	dir := filepath.Join(c.tmp, "campaign")
	start = time.Now()
	disk, err := campaign.Run(campaign.Config{Shards: 4, Shard: -1, Dir: dir, Workers: 2}, "bench-rows", n, makeRow)
	if err != nil {
		return err
	}
	c.set("campaign.checkpoint_write_ms", ms(time.Since(start)))

	start = time.Now()
	merged, err := campaign.Merge[campaignRow](dir, "bench-rows", n, 4)
	if err != nil {
		return err
	}
	c.set("campaign.merge_ms", ms(time.Since(start)))
	if !merged.Complete || merged.Digest != mem.Digest || disk.Digest != mem.Digest {
		return fmt.Errorf("campaign digests differ: memory %.12s, sharded %.12s, merged %.12s", mem.Digest, disk.Digest, merged.Digest)
	}
	return nil
}

// probeExperiments regenerates each table on one worker, so the times
// add up to the CPU the tables workload spends inside experiments.Tables.
func probeExperiments(c *ctx, span int) error {
	sweep.SetDefaultWorkers(1)
	defer sweep.SetDefaultWorkers(2)
	for _, id := range c.sz.experiments {
		child := c.rec.Start("experiments."+id, span, "")
		tables, err := experiments.Tables([]string{id})
		d := c.rec.End(child)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if len(tables) != 1 || len(tables[0].Rows) == 0 {
			return fmt.Errorf("%s: no table rows", id)
		}
		c.set("experiments."+id+"_ms", ms(d))
	}
	return nil
}
