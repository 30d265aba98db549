package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/sweep"
)

// Table is one experiment's output.
type Table struct {
	ID     string // experiment id, e.g. "E6"
	Title  string
	Paper  string // the paper artifact reproduced (figure/theorem)
	Header []string
	Rows   [][]string
	Notes  []string

	// Digest is the campaign digest over the table's scenario rows: equal
	// digests mean byte-identical rows, whatever the shard/worker/process
	// layout that produced them. Empty when Partial.
	Digest string
	// Partial marks a shard-only run (campaign Config.Shard >= 0): the
	// selected shard's checkpoint was written, Rows is nil, and the full
	// table exists only after a merge (e.g. a -resume run).
	Partial bool
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Reproduces: %s.*\n\n", t.Paper)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

// campaignCfg is the process-wide campaign configuration every table's
// scenario sweep runs under. The zero value is the single-shard in-memory
// mode (no files). Guarded for race-clean reads from concurrent builders.
var (
	campaignMu  sync.RWMutex
	campaignCfg campaign.Config
)

// SetCampaign installs the campaign configuration (sharding, checkpoint
// directory, resume) used by every subsequent table build. Call it before
// All/Tables, not concurrently with them.
func SetCampaign(cfg campaign.Config) {
	campaignMu.Lock()
	campaignCfg = cfg
	campaignMu.Unlock()
}

func currentCampaign() campaign.Config {
	campaignMu.RLock()
	defer campaignMu.RUnlock()
	return campaignCfg
}

// tableRows runs one table's scenario list through the campaign layer:
// scenario i is f(i, inputs[i]), the table id is the campaign id. The
// returned rows are nil (and partial is true) when the configuration
// selected a single shard of a multi-shard campaign.
//
// Checkpoint caveat: the campaign id is the bare table id, so checkpoints
// verify against the table id and scenario count only — the scenario
// parameters themselves live in this package's source and are not
// fingerprinted. A checkpoint directory is therefore only valid for the
// code revision that wrote it; discard it (or skip -resume) after editing
// any table's scenario list.
func tableRows[I any](t *Table, inputs []I, f func(i int, in I) []string) error {
	return tableRowsByCost(t, inputs, nil, f)
}

// tableRowsByCost is tableRows for a table whose scenarios differ in
// length by orders of magnitude: cost estimates one input's running time
// from its own parameters, and the campaign starts the costliest first
// (campaign.Config.Cost — when a row runs, never what it holds). Nil is
// input order.
func tableRowsByCost[I any](t *Table, inputs []I, cost func(in I) int64, f func(i int, in I) []string) error {
	cfg := currentCampaign()
	if cost != nil {
		cfg.Cost = func(i int) int64 { return cost(inputs[i]) }
	}
	res, err := campaign.Run(cfg, t.ID, len(inputs), func(i int) []string {
		return f(i, inputs[i])
	})
	if err != nil {
		return fmt.Errorf("%s: %w", t.ID, err)
	}
	t.Rows, t.Digest, t.Partial = res.Rows, res.Digest, !res.Complete
	return nil
}

// Builder pairs an experiment id with its table builder. The id is
// declared here, not derived from list position, so selection and the
// campaign layer (whose checkpoints are keyed by table id) stay correct
// if builders are ever inserted or reordered.
type Builder struct {
	ID    string
	Build func() (Table, error)
}

// Registry lists every experiment in index order.
func Registry() []Builder {
	return []Builder{
		{"E1", E1SigmaToHSigmaKnown},
		{"E2", E2SigmaToHSigmaUnknown},
		{"E3", E3AliveList},
		{"E4", E4HSigmaToSigma},
		{"E5", E5RelationMatrix},
		{"E6", E6DiamondHPbar},
		{"E7", E7HOmegaExtraction},
		{"E8", E8HSigmaSync},
		{"E9", E9Fig8Consensus},
		{"E10", E10Fig9Consensus},
		{"E11", E11HomonymyExtremes},
		{"E12", E12EndToEndHPS},
		{"E13", E13APReductions},
		{"E14", E14CoordinationAblation},
		{"E15", E15LeaderGroupSize},
		{"E16", E16TimeoutAdaptation},
		{"E17", E17PhaseMessageBreakdown},
		{"E18", E18ChurnSweep},
		{"E19", E19HeavyTailDelays},
		{"E20", E20ChurnConsensus},
		{"E21", E21PopulationScaling},
	}
}

// Tables runs the experiments whose ids appear in only (nil or empty =
// all) and returns their tables in index order. A requested id that
// matches no experiment is an error — a typo must not silently drop a
// table. The builders execute on the sweep worker pool (each builder
// additionally runs its scenarios through the campaign layer); the first
// error by experiment index is returned, so failures are as
// deterministic as the tables.
func Tables(only []string) ([]Table, error) {
	want := make(map[string]bool, len(only))
	for _, id := range only {
		want[id] = true
	}
	selectAll := len(want) == 0
	var selected []Builder
	for _, b := range Registry() {
		if selectAll || want[b.ID] {
			selected = append(selected, b)
			delete(want, b.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment id(s) %s (have E1–E%d)", strings.Join(unknown, ", "), len(Registry()))
	}
	return sweep.MapErr(sweep.Options{}, selected, func(_ int, b Builder) (Table, error) {
		table, err := b.Build()
		if err == nil && table.ID != b.ID {
			err = fmt.Errorf("registry id %s built table %s (registry out of sync)", b.ID, table.ID)
		}
		return table, err
	})
}

func itoa(v int64) string { return fmt.Sprintf("%d", v) }
func itoaI(v int) string  { return fmt.Sprintf("%d", v) }
