// Package check verifies consensus executions against the problem's three
// properties (§5.1): Termination (every correct process decides), Validity
// (every decided value was proposed), and Agreement (no two processes
// decide differently). It also rejects decisions on the reserved ⊥ value,
// which Fig. 8/9 must never emit (their validity proofs hinge on it), and
// asserts round agreement: a relayed decision must report the round some
// process actually decided in, not the receiver's local round.
//
// For crash-recovery executions, ConsensusChurn restates Termination over
// the eventually-up processes (recovered churners must decide; only the
// permanently down are exempt), and DecisionMonitor — fed from
// sim.Engine.AfterEvent — pins that a decision taken before an outage
// survives it unchanged. DecisionMonitor is this package's streaming
// checker: like fd's StreamProbe it consumes samples as they
// arrive and keeps O(1) state per process, so consensus verification does
// not materialize histories either.
package check
