// Command fdmon runs the paper's failure detector implementations
// standalone and reports their convergence:
//
//	go run ./cmd/fdmon -detector ohp    # Figure 6: ◇HP̄+HΩ in HPS
//	go run ./cmd/fdmon -detector hsigma # Figure 7: HΣ in HSS
//
// Flags select the population (n, l), the timing model (gst, delta) and a
// crash schedule (pid:time for ohp, pid:step for hsigma, whose steps run
// 1..-steps); the run is verified against the class axioms before any
// numbers are printed. -delta 0 means δ = 3, -horizon 0 the ohp default of
// 5,000 and -steps 0 the HΣ default of 12; the report prints the horizon
// and step count the run used. A negative -gst, -delta, -horizon or -steps,
// input the runs reject (ℓ > n, a crash PID outside [0, n), a crash step
// after the last one) and a failed class check all print `fdmon: <error>`
// on stderr and exit 1 with nothing on stdout; flag syntax errors exit 2.
package main
