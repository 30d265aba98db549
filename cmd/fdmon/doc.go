// Command fdmon runs the paper's failure detector implementations
// standalone and reports their convergence:
//
//	go run ./cmd/fdmon -detector ohp    # Figure 6: ◇HP̄+HΩ in HPS
//	go run ./cmd/fdmon -detector hsigma # Figure 7: HΣ in HSS
//
// Flags select the population (n, l), the timing model (gst, delta) and a
// crash schedule (pid:time for ohp, pid:step for hsigma, whose steps run
// 1..-steps); the run is verified against the class axioms before any
// numbers are printed. The ohp run is a scenario like hdsim's: its flags
// fill a trace.Meta that scenario.Resolve turns into the run, so -delta 0
// means δ = 3 and -horizon 0 the ohp default of 5,000 by the resolver's
// rules, and a negative -gst, -delta or -horizon, a crash PID outside
// [0, n) or a crash at or past the horizon fails as `fdmon: scenario:
// <error>`, the words hdsim prints. -steps 0 selects the HΣ default of 12;
// the report prints the horizon and step count the run used. Each
// detector reads only its own flags: hsigma ignores -gst, -delta and
// -horizon, ohp ignores -steps. Every rejected input (also ℓ > n, a
// negative -steps or a crash step after the last one under hsigma) and a
// failed class check print `fdmon: <error>` on stderr and exit 1 with
// nothing on stdout; flag syntax errors exit 2.
package main
