// Package hunt is the coverage-guided scenario fuzzer: it mutates churn,
// crash, delay, partition, and adversary schedules toward novel checker-
// and trace-coverage signals, and delta-debugs every failure down to a
// minimal scenario fit for the checked-in regression corpus.
//
// The package rides the repository's determinism contract rather than
// adding machinery of its own: a Scenario is plain data, a run's verdict
// is a pure function of (Scenario), and the fuzzing campaign is a pure
// function of (seed corpus, master seed, budget). Concretely:
//
//   - Mutation draws come from one rand.Rand seeded with the campaign's
//     master seed, consumed sequentially while batches are *assembled* —
//     never inside workers — so the mutant stream is independent of
//     parallelism.
//   - Batches execute through sweep.MapOpt, whose results arrive in
//     input order at any worker count and whatever order its Cost hint
//     (Scenario.runCost: longest first) starts them in; the campaign log
//     is written only from that ordered stream. Two campaigns with the
//     same master seed and budget therefore produce byte-identical
//     find/shrink logs.
//   - The shrinker is greedy over a fixed candidate order with a strictly
//     decreasing size metric (Scenario.Size), so the same failing
//     scenario always reduces to the same minimal scenario.
//   - Nothing in this package reads the clock, the environment, or a
//     directory listing. Corpus entries are decoded from bytes; the
//     enumeration I/O lives in cmd/hunt and in _test.go files.
//
// Coverage is behavioural, not line-based: the key for a run combines the
// checker verdict class, the stop reason, the decision-round depth, and
// log-bucketed trace statistics (broadcasts, deliveries, drops, crashes,
// recoveries, decisions). A mutant earning a new key joins the live
// corpus; a mutant failing verification becomes a finding, is shrunk, and
// both forms are reported.
package hunt
