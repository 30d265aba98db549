// Package fd defines the failure detector classes the paper works with —
// both the previously known ones (◇P̄, Σ, Ω, AΩ, AP, AΣ, and the class 𝔈
// the paper formalizes in Definition 1) and the new homonymous classes
// (◇HP̄, HΩ, HΣ) — together with trace-based property checkers that verify
// the class axioms on recorded executions.
//
// A failure detector is a distributed oracle: each process owns local
// output variables that the detector updates over time. In this codebase a
// detector instance is the per-process object; algorithms query it through
// the small interfaces below, and the simulator's observers sample those
// same interfaces to feed the checkers.
//
// Verification samples through one pipeline. A StreamProbe reads a
// detector output whenever it can change, keeps O(1) state per process
// and pushes every change to its observers: the trace, or — in a Probe —
// a collector that keeps the full per-process history for the checkers
// that quantify over whole executions (HΣ, Σ, AP, AΣ).
// Checkers that judge final outputs and stabilization times take the
// FinalView interface, so one checker body serves a bare StreamProbe, a
// Probe and a trace replayer; stream_test.go compares the sampler with an
// independent reference over identical executions.
package fd
