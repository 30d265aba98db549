// Package reduce implements the paper's reductions between failure
// detector classes (§3.3): the algorithms of Figures 1, 2 and 4, the local
// transformations of Theorem 3, Lemmas 2–3 and Observation 1, and a
// machine-checked relation matrix covering the Figure 5 diagram.
//
// A reduction builds (emulates) a detector of a target class from a
// detector of a source class, sometimes with communication. Reductions are
// simulator modules; the emulated detector is queried through the same
// fd interfaces as native implementations, so the same property checkers
// certify them. A constructor takes only its source detectors (and, for
// Figure 1, the membership): every "repeat forever" loop runs at the
// fixed DefaultPollInterval.
//
// Every reduction is verified by the same experiment, and Deployment is
// that experiment written once: a Stack (one of the eight Stack*
// functions: a source-class oracle with the transformation on top) at
// each process of an identity assignment, a crash schedule, a seed, and a
// target class. Run owns the engine, a stats-only recorder, the ground
// truth and the oracle world (truthful from virtual time 120), runs to
// virtual time 800 and returns the class checker's result, the message
// costs and the deployed detectors. The target class is a Judge, which
// pairs a class's probes and sample equality with its checker:
// JudgeHSigma and JudgeSigma sample into history-keeping fd.Probes because
// CheckHSigma and CheckSigma quantify over whole executions;
// JudgeDiamondHPbar and JudgeHOmega run on bare fd.StreamProbes because
// their checkers read a final view. All() is the Figure 5 diagram as
// eight rows over these, and experiments E1, E2, E4 and E13 deploy the
// same stacks at their own sizes, crashes and seeds.
package reduce
