// Package analysis is the detlint suite: static analyzers that enforce
// the determinism contracts ARCHITECTURE.md writes down for each layer.
//
// Everything this repo verifies — byte-identical tables, traces and
// digests at any parallelism or sharding, replayable (Config, seed)
// verdicts — depends on the deterministic packages (sim, core, fd,
// check, sweep, campaign, trace, experiments, multiset, reduce) being
// pure functions of their seeded inputs. The equality tests that guard
// those contracts are dynamic: they must get lucky enough to exercise a
// nondeterminism before it ships. The analyzers here check the contracts
// at the source level instead, so a stray map iteration or wall-clock
// read fails the build rather than a sweep three PRs later.
//
// The leaf suite (run by cmd/detlint over ./...):
//
//   - maprange: range over a map is flagged unless the loop provably
//     folds order-independently or collects into a slice that is sorted
//     later in the same function.
//   - wallclock: time.Now/Since/Sleep/After/… are forbidden; virtual
//     time lives in sim.Time. _test.go deadlines are allowlisted.
//   - globalrand: package-level math/rand draws and references to
//     crypto/rand are forbidden; randomness flows through injected seeded
//     *rand.Rand or the keyed splitmix64 fate streams.
//   - unsortedgo: go statements are forbidden outside internal/sweep's
//     audited worker pool.
//   - ptrformat: %p and pointer/map/chan/func operands to fmt must not
//     reach trace/digest/table rendering.
//   - selectorder: multi-case selects are forbidden — the runtime picks
//     among ready cases pseudorandomly (sweep and hruntime exempt).
//   - unstablesort: sort.Slice, slices.SortFunc and sort.Sort are
//     forbidden whatever the comparison — use the stable variant, or
//     slices.Sort when the elements themselves are the key.
//   - osenv: ambient host-state reads (os.Getenv, os.ReadDir,
//     filepath.Glob, …) are forbidden; explicit-path file I/O is an
//     input and stays legal. _test.go harness knobs are allowlisted.
//
// Every leaf is the same runner over one recognizer (eachSource in
// sources.go), filtered to its own kind.
//
// On top of the leaves, Flow (cmd/detlint -flow) is the whole-module
// interprocedural taint pass: it seeds its taint from the same recognizer
// in every module package, propagates per-function source-instance summaries
// over a call graph (static edges via go/types; interface and
// func-value calls over-approximated by name+arity against
// deterministic-set candidates), and reports at the taint frontier —
// the deterministic-side call site whose module-local callee carries
// live taint — with the full call chain to the concrete source. Its
// Report method renders the certified-deterministic API report checked
// in as detflow_report.txt.
//
// The same call graph answers a second question: which functions no
// main function or package initializer can reach. When the load includes
// a main package, each such function in a non-test file is a diagnostic
// of kind "unreached" (unreached.go); keeping one on purpose takes a
// suppression with its reason, like any other exception.
//
// Exceptions are declared in the source as
//
//	//detlint:ignore <analyzer> <reason>
//
// on (or directly above) the offending line. The reason is mandatory:
// every suppression is a grep-able, justified audit artifact, and the
// driver rejects a bare ignore instead of honouring it.
//
// The framework deliberately mirrors a small subset of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Reportf, an
// analysistest-style harness in analysis/atest) so the suite can migrate
// onto the upstream framework wholesale if the dependency is ever
// vendored; it is reimplemented here because this module is
// dependency-free by constraint.
package analysis
