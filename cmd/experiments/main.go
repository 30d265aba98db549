package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E6,E9); default all")
	workers := flag.Int("workers", 0, "scenario parallelism (0 = all cores, 1 = serial); output is identical either way")
	campaignCfg := cliutil.CampaignFlags(flag.CommandLine)
	startProfiles := cliutil.ProfileFlags(flag.CommandLine)
	flag.Parse()
	sweep.SetDefaultWorkers(*workers)

	cfg, err := campaignCfg()
	if err != nil {
		log.Fatal(err)
	}
	experiments.SetCampaign(cfg)

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		log.Fatal(err)
	}
	tables, err := experiments.Tables(ids)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, table := range tables {
		if table.Partial {
			fmt.Fprintf(os.Stderr, "%s: shard %d/%d checkpointed in %s (no table output; merge with -resume)\n",
				table.ID, cfg.Shard, cfg.Shards, cfg.Dir)
			continue
		}
		fmt.Println(table.Markdown())
	}
}
