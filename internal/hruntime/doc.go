// Package hruntime is a live, goroutine-per-process runtime for the
// paper's algorithms: real concurrency, real channels, real timeouts. It
// is the second runtime next to the deterministic simulator (internal/sim),
// not a second implementation: each algorithm has one body — core.Fig8,
// core.Fig9, ohp.Detector, the oracle detectors, stacked by sim.Node — and
// a Proc runs that sim.Process unmodified by being its sim.Environment.
// Outcomes are core.Outcomes and decisions KindDecide trace events, so
// live runs are judged by the checkers simulator runs are judged by. The
// partialsync example runs on this runtime.
//
// A Cluster is the broadcast network: it owns one inbox per process and
// delivers every broadcast copy after a per-copy random delay, optionally
// with partially-synchronous semantics (copies sent before GST may be
// dropped; copies sent after are delivered within Delta). Crashing a
// process stops its deliveries, its sends and its steps, as in the model.
// Cluster.Start attaches a process; Options.Unit is the one clock both
// the processes (Now, SetTimer) and the trace are measured in.
package hruntime
