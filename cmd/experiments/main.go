package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command with its process boundary made explicit, like
// cmd/hdsim's: arguments in, tables on stdout, diagnostics on stderr, exit
// code back — 0 clean, 1 an unknown id, a campaign configuration error or
// a failed table (`experiments: <error>` on stderr, nothing on stdout), 2
// flag syntax.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated experiment ids to run (e.g. E6,E9); default all")
	workers := fs.Int("workers", 0, "size of each worker pool — tables, a table's rows, E14's seeds nest (0 = all cores, 1 = serial); output is identical either way")
	campaignCfg := cliutil.CampaignFlags(fs)
	startProfiles := cliutil.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	sweep.SetDefaultWorkers(*workers)

	cfg, err := campaignCfg()
	if err != nil {
		return fail(err)
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
		return fail(err)
	}
	tables, err := experiments.Tables(ids)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	for _, table := range tables {
		if table.Partial {
			fmt.Fprintf(stderr, "%s: shard %d/%d checkpointed in %s (no table output; merge with -resume)\n",
				table.ID, cfg.Shard, cfg.Shards, cfg.Dir)
			continue
		}
		fmt.Fprintln(stdout, table.Markdown())
	}
	return 0
}
