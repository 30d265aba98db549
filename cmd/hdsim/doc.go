// Command hdsim runs one verified experiment on the simulator:
//
//	go run ./cmd/hdsim -algo fig8 -n 5 -l 2 -t 2 -crashes 1:30
//	go run ./cmd/hdsim -algo fig9 -n 6 -l 3 -crashes 0:20,1:40,2:60,3:80
//	go run ./cmd/hdsim -algo fig8 -detectors mp -gst 80 -delta 3
//	go run ./cmd/hdsim -algo fig8 -net pareto:1.5:15
//	go run ./cmd/hdsim -algo ohp -n 12 -l 4 -churn 0.25:2:40:60
//	go run ./cmd/hdsim -algo fig8 -n 5 -l 2 -t 2 -churn 0.3:1:60
//	go run ./cmd/hdsim -algo fig9 -n 6 -l 3 -churn 0.34:2:40:50
//	go run ./cmd/hdsim -algo heartbeat -n 50000 -l 200 -beaters 100 -churn 0.05:1:12:20:0 -horizon 45 -max-events 100000000
//
// Algorithms: fig8 = HAS[t<n/2, HΩ] (Theorem 7); fig9 = HAS[HΩ, HΣ]
// (Theorem 8, any number of crashes); fig9-anon = the anonymous AΩ
// baseline; ohp = the standalone Figure 6 detector (◇HP̄ → HΩ); heartbeat
// = the population-scale churn workload (lazy broadcast fan-out plus
// streaming verification, constant memory in the event count — the E21
// scenario). Every run is verified (consensus properties, detector class
// properties, or — for heartbeat — ground-truth churn bookkeeping,
// delivery accounting, and delivery liveness) before results are printed;
// a verification failure exits non-zero.
//
// The scenario flags bind straight into a trace.Meta fingerprint, which
// internal/scenario resolves (defaults, effective network, validation)
// and runs; -replay resolves the fingerprint a trace embeds through the
// same code. Everything the resolver rejects exits 1 with a "scenario:"
// error before a header is printed or the -trace file is created: -n < 1,
// -l outside [1, n], an unknown -algo, -adversary or -detectors value,
// -detectors mp with anything but fig8, a -partition cut >= n or a window
// still open at the horizon, -crashes with heartbeat, -crashes plus -churn
// with ohp, -beaters > n, a negative -period, -horizon, -stabilize, -gst,
// -delta or -max-events, and any malformed -crashes/-churn/-net/-partition
// spec, including a NaN or infinite -churn fraction or -net float
// parameter. -seeds < 1 is rejected the same way.
//
// heartbeat-only flags: -period sets the beat interval (0 = the default,
// 10, which is what the header then prints); -beaters caps how
// many processes beat (0 = all n; the rest only listen, so event volume
// is Θ(beaters·n) while every broadcast still fans out to all n live
// recipients); -max-events overrides the engine's runaway-guard cap.
//
// -churn adds a crash-recovery churn schedule to any algorithm. Under ohp
// the detector's churn-restated class properties are verified; under the
// consensus algorithms the recovered processes rejoin through the
// (REJOIN, r) round-resync protocol and the crash-recovery consensus
// properties are checked: Termination over the eventually-up set, decision
// stability across outages, and relayed decisions reporting the round the
// decision was actually reached in. -crashes may be combined with -churn
// for additional permanent crashes of non-churning processes (fig8's -t
// budget covers churners and permanent crashes alike).
//
// -net selects the delay model (see cliutil.ParseNet): async[:max],
// psync:gst:delta, timely[:δ], pareto[:α[:cap]], lognormal[:σ[:cap]],
// alt[:period[:calm]], asym[:skew], lossy[:p[:max]]. It overrides
// -gst/-delta. Without -net or -gst, ohp runs on its own
// PartialSync{gst, delta} (-delta 0 meaning 3) rather than the
// asynchronous default; the header prints the network that runs.
//
// -trace FILE streams the run's full event trace to FILE. -trace-format
// selects the sink: text (the default; one event per line, the canonical
// trace.WriteText rendering) or binary (a compact varint stream, ~6
// bytes/event, decoded with trace.ReadBinary). Either way the trace is
// spilled in batches of -trace-buf events (negative values are rejected),
// so even a multi-million-event run traces in constant memory. Single
// runs only. Binary traces embed the full scenario fingerprint and a
// seekable frame index (internal/trace v2 format).
//
// -replay FILE re-verifies a recorded run offline from its binary trace:
//
//	go run ./cmd/hdsim -algo fig8 -churn 0.4:1 -trace run.bin -trace-format binary
//	go run ./cmd/hdsim -replay run.bin
//
// No engine runs — the scenario is reconstructed from the fingerprint
// embedded in the trace (every other flag is ignored), the checkers
// consume the recorded events, and the verdict report is byte-identical
// to the live run's apart from engine-only counters. Replay streams the
// trace eventwise, so population-scale runs re-verify in constant
// memory. See also cmd/tracediff for localizing the first divergent
// event between two recorded traces.
//
// -cpuprofile FILE and -memprofile FILE write a CPU profile of the run and
// a heap profile taken when it ends, for go tool pprof. They are side
// outputs: stdout, the trace and every digest are the same with or
// without them.
//
// With -seeds k > 1 the same scenario is swept over k consecutive seeds in
// parallel across all cores (deterministically: the report is identical
// for any -workers value), and per-seed rows plus aggregates are printed:
//
//	go run ./cmd/hdsim -algo fig8 -n 7 -l 3 -t 3 -crashes 1:30 -seeds 64
//
// Seed sweeps are campaigns: -shards/-shard/-checkpoint-dir/-resume shard
// the seed list into checkpointed batches exactly as in cmd/experiments,
// so a large sweep can fan out across processes and resume after a kill:
//
//	go run ./cmd/hdsim -algo fig8 -seeds 64 -shards 4 -shard 2 -checkpoint-dir ckpt
//	go run ./cmd/hdsim -algo fig8 -seeds 64 -shards 4 -checkpoint-dir ckpt -resume
package main
