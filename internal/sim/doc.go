// Package sim is a deterministic discrete-event simulator for homonymous
// message-passing systems, the substrate every algorithm in this repository
// runs on. It reproduces the paper's system model (§2):
//
//   - n processes Π, each knowing only its own identifier id(p); several
//     processes may share an identifier (homonymy). Internal process indexes
//     (PIDs) are a formalization tool and are never visible to algorithms.
//   - communication by broadcast(m): one copy of m is sent along the
//     directed link from the sender to every process, including itself; a
//     receiver cannot tell which link a message arrived on.
//   - crash failures: a crashed process stops taking steps; a process that
//     crashes while broadcasting delivers to an arbitrary subset. Beyond
//     the paper, the engine also runs crash-recovery churn (RecoverAt,
//     ChurnSpec schedules): recovery resumes the process where it paused,
//     and Recoverer implementations restart their timer chains.
//   - timing models: HAS (asynchronous, reliable links), HPS (partially
//     synchronous: messages sent after an unknown GST are delivered within
//     an unknown bound δ; earlier messages may be lost or delayed
//     arbitrarily but finitely), and HSS (synchronous lock-step; see the
//     SyncEngine in sync.go). models.go adds heavy-tailed, time-varying,
//     and per-link-asymmetric delay models for scenario sweeps.
//
// Executions are driven by a single seeded event queue, so every run is
// reproducible and costs (messages, virtual stabilization times) are exact.
// Per-message delivery fates (loss, partial-crash survival, per-link
// delay) are drawn from deterministic fate streams keyed by (seed,
// broadcast, recipient) — pure functions, re-evaluable in any order — so
// a broadcast never has to be stored as n scheduled copies.
//
// # Hot-path design
//
// The deliver path is built to allocate nothing at steady state, and a
// broadcast costs O(1) queue space:
//
//   - queue events are 32-byte values in a 4-ary min-heap — no per-event
//     heap allocation, no pointer chasing;
//   - fan-out is lazy: an in-flight broadcast is one evFanout queue entry
//     and one fanout record (fate key, boxed payload, fate table, wave
//     cursor), freed in one place when its last wave is done. The entry
//     delivers one delay-wave at a time against live membership and
//     re-enqueues itself for the next wave, each copy keeping the
//     (time, seq) position a queue entry of its own would have had — the
//     per-copy expansion is a test-only reference (eager_ref_test.go) the
//     fan-out tests compare every trace byte with. The queue high-water
//     mark (MaxQueueLen) therefore tracks live broadcasts, not n² copies
//     in flight;
//   - every copy's fate is computed once, by the send-time scan, which
//     writes it into a per-broadcast fate table of one byte per recipient
//     and notes which delays occur; a wave knows its successor from that
//     set and picks its own copies out of the table eight recipients per
//     load, with byte masks and popcounts instead of a compare per byte
//     (WaveWords counts the loads). The tables of all in-flight broadcasts
//     are held to a fixed budget, past which a broadcast recomputes its
//     fates per wave instead (see fanout.go);
//   - a wave counts its deliveries and drops for a stats-only recorder in
//     plain ints and adds them once, before it returns: the recorder's
//     Delivered/Dropped are exact whenever Run/RunUntil has returned and
//     may lag by the current wave inside an AfterEvent hook;
//   - repeated payload values can be interned through the engine's
//     type-indexed arena (Intern), so periodic algorithms do not re-box
//     their messages every period;
//   - trace costs are pay-for-what-you-use: with a nil trace.Recorder the
//     engine formats nothing and computes no tags, and with a stats-only
//     recorder it counts event kinds without building tag/detail strings.
//
// TestUntracedDeliverZeroAlloc pins the zero-allocation property with
// testing.AllocsPerRun.
package sim
