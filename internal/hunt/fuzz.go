package hunt

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	hds "repro"
	"repro/internal/sweep"
)

// FuzzConfig parameterizes one campaign. The triple (Seeds, MasterSeed,
// Budget) fully determines the campaign's log and findings — Workers (via
// sweep.SetDefaultWorkers) changes only wall-clock time.
type FuzzConfig struct {
	// Seeds is the initial corpus; nil means StructuredSeeds().
	Seeds []Scenario
	// MasterSeed drives every mutation draw.
	MasterSeed int64
	// Budget caps scenario executions in the exploration loop (shrink
	// runs are accounted separately in FuzzResult.Executed). Minimum one
	// generation.
	Budget int
	// BatchSize is the per-generation mutant count (default 16).
	BatchSize int
	// Log receives the campaign's progress lines; nil discards them.
	Log io.Writer
}

// Finding is one verification failure, as found and as shrunk.
type Finding struct {
	Scenario Scenario `json:"scenario"`
	Outcome  string   `json:"outcome"`
	Class    string   `json:"class"`
	Minimal  Scenario `json:"minimal"`
	// MinimalOutcome is the minimal scenario's full verdict line — the
	// Want a corpus entry pins.
	MinimalOutcome string `json:"minimalOutcome"`
	ShrunkFrom     int    `json:"shrunkFrom"` // Size before shrinking
	ShrunkTo       int    `json:"shrunkTo"`   // Size after
}

// FuzzResult summarizes a campaign.
type FuzzResult struct {
	Executed int // scenario runs, exploration plus shrinking
	Coverage int // distinct coverage keys observed
	Findings []Finding
}

// Fuzz runs one coverage-guided campaign: execute the seed corpus, then
// mutate coverage-novel members generation by generation until the budget
// is spent, shrinking every failure as it is found. Batches are assembled
// sequentially (all randomness drawn on the coordinator) and executed
// through sweep.MapOpt, longest first, so the log and findings are
// byte-identical for a given (Seeds, MasterSeed, Budget) at any worker
// parallelism.
//
// Findings are deduplicated by (kind, class): the first scenario to
// witness a failure signature is shrunk and kept, later witnesses only
// count toward coverage. A campaign on a healthy tree therefore reports
// zero findings, cheaply.
func Fuzz(cfg FuzzConfig) FuzzResult {
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	seeds := cfg.Seeds
	if seeds == nil {
		seeds = StructuredSeeds()
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 16
	}
	rng := rand.New(rand.NewSource(cfg.MasterSeed))

	var res FuzzResult
	coverage := map[string]bool{}
	foundClasses := map[string]bool{}
	var corpus []Scenario // coverage-novel scenarios, mutation sources

	fmt.Fprintf(logw, "hunt: seeds=%d budget=%d batch=%d master=%d\n", len(seeds), cfg.Budget, batch, cfg.MasterSeed)

	// ingest folds one ordered slice of (scenario, outcome) pairs into
	// coverage, corpus, and findings — the only place campaign state
	// changes, always from input-ordered results.
	ingest := func(scs []Scenario, outs []Outcome) {
		for i, o := range outs {
			sc := scs[i]
			key := CoverageKey(sc.Kind, o)
			if !coverage[key] {
				coverage[key] = true
				corpus = append(corpus, sc)
				fmt.Fprintf(logw, "  cov[%d] %s\n", len(coverage), key)
			}
			if !o.Reportable() {
				continue
			}
			sig := sc.Kind + "/" + o.Class
			if foundClasses[sig] {
				continue
			}
			foundClasses[sig] = true
			fmt.Fprintf(logw, "  FIND class=%s %s\n", o.Class, sc.Fingerprint())
			fmt.Fprintf(logw, "        %s\n", o.Verdict)
			min, minOut := Shrink(sc, func(c Scenario) Outcome {
				res.Executed++
				return c.Run()
			})
			fmt.Fprintf(logw, "  SHRUNK class=%s size=%d->%d %s\n", o.Class, sc.Size(), min.Size(), min.Fingerprint())
			res.Findings = append(res.Findings, Finding{
				Scenario:       sc,
				Outcome:        o.Verdict,
				Class:          o.Class,
				Minimal:        min,
				MinimalOutcome: minOut.Verdict,
				ShrunkFrom:     sc.Size(),
				ShrunkTo:       min.Size(),
			})
		}
	}

	// runBatch starts the longest scenarios first (runCost), so a long run
	// does not start last and hold the batch's barrier alone; results stay
	// in input order.
	runBatch := func(scs []Scenario) []Outcome {
		res.Executed += len(scs)
		opt := sweep.Options{Cost: func(i int) int64 { return scs[i].runCost() }}
		return sweep.MapOpt(opt, scs, func(_ int, sc Scenario) Outcome { return sc.Run() })
	}

	// Generation 0: the structured seeds, before any random exploration.
	ingest(seeds, runBatch(seeds))

	gen := 0
	for explored := len(seeds); explored < cfg.Budget; explored += batch {
		gen++
		mutants := make([]Scenario, 0, batch)
		for len(mutants) < batch {
			parent := corpus[rng.Intn(len(corpus))]
			mutants = append(mutants, Mutate(parent, rng))
		}
		ingest(mutants, runBatch(mutants))
		fmt.Fprintf(logw, "gen %d: corpus=%d coverage=%d findings=%d\n", gen, len(corpus), len(coverage), len(res.Findings))
	}

	res.Coverage = len(coverage)
	sort.SliceStable(res.Findings, func(i, j int) bool { return res.Findings[i].Class < res.Findings[j].Class })
	fmt.Fprintf(logw, "done: executed=%d coverage=%d findings=%d\n", res.Executed, res.Coverage, len(res.Findings))
	return res
}

// runCost estimates how many deliveries the scenario's run makes, from its
// own kind, size and horizon (or the runner's default), for
// sweep.Options.Cost. Only the order of the estimates matters. Figure 6
// polls until the horizon, and every POLLING draws a P_REPLY broadcast
// from each process: n³ deliveries a round. A heartbeat run beats to all
// once a period until the horizon. A consensus run stops at its decision,
// a few rounds of everyone broadcasting to all.
func (s Scenario) runCost() int64 {
	n := int64(s.N)
	e := hds.Experiment{Algo: s.Kind, Horizon: s.Horizon, Period: s.Period}.WithDefaults()
	switch s.Kind {
	case "ohp":
		return int64(e.Horizon) * n * n * n
	case "heartbeat":
		return int64(e.Horizon/max(e.Period, 1)) * n * n
	}
	return n * n * n
}
