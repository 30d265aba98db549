// Package sweep holds the repository's concurrency primitives: it fans
// independent simulation scenarios across CPU cores, and it runs one
// pipeline stage beside the goroutine that feeds it.
//
// The simulator (internal/sim) is strictly deterministic but single-
// goroutine: one engine is one totally ordered event queue. Experiment
// campaigns, however, run hundreds of independent (seed, assignment,
// network model, crash pattern) scenarios, and those parallelize
// perfectly — engines share no mutable state. Map is the fan-out.
//
// Stage is the other primitive: a bounded, in-order queue of functions
// run one at a time on a goroutine of its own. Go blocks only while depth
// of them are pending, and Wait is a barrier over all of them (it
// publishes their writes and re-raises the first panic). The trace
// recorder uses it to spill batches while the engine records on; the
// functions run oldest first, one at a time, so whatever they feed sees
// the same calls in the same order as a serial run. Nothing else in the
// deterministic packages may start a goroutine (detlint's unsortedgo
// rule), so these two are the audited places concurrency enters.
//
// # Determinism contract
//
// Map and MapErr guarantee order-independent, reproducible aggregation:
// result i is produced by f(i, inputs[i]) alone, each worker writes only
// its own result slot, and the output slice is ordered by input index —
// never by completion order. Provided f is itself deterministic per input
// (every scenario seeds its own engine and builds its own recorder and
// ground truth), a sweep's output is byte-identical for every worker
// count, including Workers=1 (fully serial, no goroutines). The test
// suite pins this: serial and parallel sweeps of the experiment tables
// must agree bit for bit, under the race detector.
//
// f must not share mutable state across calls; everything an engine
// touches (rand source, recorder, probes, truth) must be created inside f.
//
// # Pools nest, and Workers bounds each one
//
// Every Map call is its own pool of Options.Workers goroutines (or the
// process-wide default a CLI's -workers flag sets), and an f may itself
// call Map: cmd/experiments runs the tables on one pool, each table's
// rows on a second (through internal/campaign), and E14's rows sweep
// their seeds on a third. -workers W therefore bounds each pool, not the
// process — up to W³ scenarios can be runnable there at once. What runs
// at any instant is still bounded by GOMAXPROCS; what is not bounded by W
// is how many engines are alive, and so memory.
//
// # Dispatch order
//
// Workers take indices in input order unless Options.Cost is set; then
// they take them by descending cost, ties in input order, so that one
// scenario much longer than its siblings starts first instead of running
// alone at the end. Two callers state one: E21's rows (through
// internal/campaign) and hunt's batches, where a Figure 6 run polls to its
// horizon beside consensus runs that stop at their decision. Cost is a
// scheduling hint: by the contract above it can change when a scenario
// runs and never what Map returns, and the panic contract survives it —
// the pool stops starting indices above the lowest panic captured so far
// and keeps starting those below it, so the panic that reaches the caller
// is the lowest-index one, the one a serial run stops at, in any dispatch
// order.
package sweep
