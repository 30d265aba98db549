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
//     arbitrarily but finitely), and HSS (synchronous lock-step steps,
//     run on the same engine as Lockstep processes; see lockstep.go).
//     models.go adds heavy-tailed, time-varying, and per-link-asymmetric
//     delay models for scenario sweeps.
//
// Executions are driven by a single seeded event queue, so every run is
// reproducible and costs (messages, virtual stabilization times) are exact.
// Per-message delivery fates (loss, partial-crash survival, per-link
// delay) are drawn from deterministic fate streams keyed by (seed,
// broadcast, recipient) — pure functions, re-evaluable in any order — so
// a broadcast never has to be stored as n scheduled copies. A Model draws
// from its copy's stream through a concrete *Fate (fate.go).
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
//     delivers one delay-wave at a time against live membership, parked
//     at the heap root, and is re-keyed in place for the next wave (one
//     sift down, as a fired timer is re-armed), each copy keeping the
//     (time, seq) position a queue entry of its own would have had — the
//     per-copy expansion is a test-only reference (eager_ref_test.go) the
//     fan-out tests compare every trace byte with. The queue high-water
//     mark (MaxQueueLen) therefore tracks live broadcasts, not n² copies
//     in flight;
//   - every copy's fate is decided by the send-time scan, which codes it
//     into a per-broadcast fate table of half a byte per recipient and
//     notes which codes occur; a wave knows its successor from that set
//     and picks its own copies out of the table sixteen recipients per
//     load, with nibble masks and popcounts instead of a compare per
//     recipient (WaveWords counts the loads). A code holds 13 delays; a
//     broadcast whose delays run past them is recoded once those waves
//     are done, recomputing only the later copies' fates. Under Async and
//     PartialSync, the HAS and HPS models, the scan draws each delay with
//     the copy's stream in a local Fate rather than through the Model
//     interface. The tables of all in-flight broadcasts are held to a
//     fixed budget, past which a broadcast recomputes its fates per wave
//     instead (see fanout.go);
//   - a fired timer is re-armed in place: its entry stays at the heap root
//     while the handler runs, and the process's first SetTimer rewrites
//     it and sifts it down once — one heap pass per heartbeat tick where a
//     pop and a push take two, in exactly their order (the pop-then-push
//     engine is a test-only reference, timer_ref_test.go);
//   - a timer its process has snoozed (Environment.Snooze: until some
//     instant, the handler would only re-arm it) is recorded and re-armed
//     in place the same way and not dispatched at all; any other event
//     for the process ends the hint. The record is one slice entry per
//     process, allocated at the first Snooze, so a run that never snoozes
//     pays a nil check per dispatch;
//   - when every queue entry is such a timer, all of one period, no
//     observer is registered and the recorder does not retain, the engine
//     jumps over all but the last of the whole cycles of ticks that fit
//     before the next stop: one pass over the queue shifts every entry's
//     time and seq (Engine.jump);
//   - for a stats-only recorder the engine counts deliveries, drops and
//     fired timers in plain ints and adds them once, when RunUntil
//     returns: the recorder's Delivered/Dropped/Timers are exact whenever
//     Run/RunUntil has returned and may lag inside an AfterEvent hook;
//   - a broadcast's payload is boxed by its sender, once: the fan-out
//     record carries that one box to all n copies, and a periodic sender
//     whose message never changes keeps the box it made in Init;
//   - trace costs are pay-for-what-you-use: with a nil trace.Recorder the
//     engine formats nothing and computes no tags, and with a stats-only
//     recorder it counts event kinds without building tag/detail strings.
//
// TestUntracedDeliverZeroAlloc pins the zero-allocation property with
// testing.AllocsPerRun.
package sim
