// Command experiments regenerates every experiment table (E1–E20): one
// per figure/theorem of the paper (E1–E13), the ablations E14–E17, the
// churn/heavy-tail sweeps E18/E19, and the churn-consensus table E20. Output is deterministic markdown;
// redirect it to refresh the file:
//
//	go run ./cmd/experiments > EXPERIMENTS_tables.md
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
