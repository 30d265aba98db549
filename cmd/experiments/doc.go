// Command experiments regenerates every experiment table (E1–E21): one
// per figure/theorem of the paper (E1–E13), the ablations E14–E17, the
// churn/heavy-tail sweeps E18/E19, the churn-consensus table E20, and the
// population-scaling table E21 (the heartbeat workload at n = 1,000,
// 10,000 and 50,000, about half of the command's running time). Output is
// deterministic markdown; redirect it to refresh the file:
//
//	go run ./cmd/experiments > EXPERIMENTS_tables.md
//
// -workers W bounds each worker pool, not the process. Pools nest: the
// selected tables run on one, each table's rows on another, and E14's
// rows each sweep their seeds on a third, so up to W³ scenarios can be
// runnable at once (the Go scheduler still runs GOMAXPROCS of them at a
// time). A table may state what its rows cost (E21 does: n × beaters,
// the copies per beat) so that its pool starts the long row first; that
// changes when a row runs, never a byte of the output.
//
// Campaigns shard: -shards N splits every selected table's scenario list
// into N deterministic batches. With -shard k only that batch runs and
// its checkpoint is written to -checkpoint-dir (multi-process fan-out:
// one process per shard, any machine order); a final -resume run verifies
// the existing checkpoints, re-runs exactly the missing or damaged ones,
// and merges — byte-identical to a single-process run by the campaign
// determinism contract:
//
//	go run ./cmd/experiments -only E18 -shards 4 -shard 0 -checkpoint-dir ckpt   # × 4, in parallel
//	go run ./cmd/experiments -only E18 -shards 4 -checkpoint-dir ckpt -resume    # verify + merge
//
// -cpuprofile FILE and -memprofile FILE write a CPU profile of the table
// runs and a heap profile taken when they end, for go tool pprof; the
// tables on stdout are the same with or without them:
//
//	go run ./cmd/experiments -only E21 -workers 1 -cpuprofile e21.pprof > /dev/null
package main
