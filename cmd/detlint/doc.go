// Command detlint runs the determinism-contract analyzers
// (repro/internal/analysis) over the tree and fails on any unsuppressed
// diagnostic — the static counterpart to the serial-vs-parallel equality
// tests, wired into CI next to gofmt and go vet.
//
// Usage:
//
//	go run ./cmd/detlint -flow ./...    # lint incl. interprocedural taint
//	go run ./cmd/detlint ./...          # leaf analyzers only
//	go run ./cmd/detlint -json ./...    # diagnostics as sorted JSON
//	go run ./cmd/detlint -ignores ./... # list justified suppressions
//	go run ./cmd/detlint -analyzers     # describe the suite
//
//	go run ./cmd/detlint -flow -report ./... > detflow_report.txt
//
// -flow adds detflow, the whole-module interprocedural pass: the leaf
// analyzers' nondeterminism sources are recognized in every package and
// propagated over the call graph, so a wall-clock read laundered through
// a helper — even one in an exempt package — is reported at the
// deterministic-side call site with its full call chain. -report (with
// -flow) prints the certified-deterministic API report instead of
// diagnostics: every exported function of the deterministic packages,
// marked clean, suppressed (with reasons), or TAINTED (with a witness
// chain). The report is byte-stable; CI diffs it against the checked-in
// detflow_report.txt, and diffs the -ignores inventory against
// detlint_ignores.txt, so both the exception set and the certified
// surface only change through reviewed baseline diffs.
//
// A finding is either fixed or suppressed in place with
//
//	//detlint:ignore <analyzer> <reason>
//
// on (or directly above) the offending line; analyzer "detflow" vets
// one call edge of the flow pass. Missing or empty reasons are
// themselves diagnostics: the suppression inventory (-ignores) is the
// audit trail of every standing exception to the determinism contracts
// in ARCHITECTURE.md.
//
// Exit status: 0 clean, 1 an unsuppressed diagnostic or a malformed
// suppression, 2 a usage or load error. Package patterns are resolved
// against the module root. go test ./cmd/detlint pins exit code, stdout
// and stderr of the lint, listing, report and JSON runs against
// testdata/golden (-update rewrites them).
package main
