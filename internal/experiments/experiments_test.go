package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// TestAllTablesVerified runs every experiment end to end and asserts no
// row reports a verification failure — the experiment suite is itself a
// regression test for the whole stack.
func TestAllTablesVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	tables := allTables(t)
	ids := make(map[string]bool)
	for _, table := range tables {
		table := table
		t.Run(table.ID, func(t *testing.T) {
			if table.ID == "" || table.Title == "" || table.Paper == "" {
				t.Fatalf("table metadata incomplete: %+v", table)
			}
			if ids[table.ID] {
				t.Fatalf("duplicate experiment id %s", table.ID)
			}
			ids[table.ID] = true
			if table.Partial {
				t.Fatal("default campaign config produced a partial table")
			}
			if table.Digest == "" {
				t.Fatal("table has no campaign digest")
			}
			if len(table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(table.Header), row)
				}
				for _, cell := range row {
					if strings.HasPrefix(cell, "✗") {
						t.Fatalf("verification failure in row %v", row)
					}
				}
			}
		})
	}
}

// allTables builds E1–E21 once for every test that reads the full set.
var allTables = func() func(t *testing.T) []Table {
	var (
		once   sync.Once
		tables []Table
		err    error
	)
	return func(t *testing.T) []Table {
		t.Helper()
		once.Do(func() { tables, err = All() })
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
}()

var updateDigests = flag.Bool("update", false, "rewrite testdata/table_digests.txt from the current tables")

// TestTableDigests pins every table's rendered bytes (header, rows and
// notes) by SHA-256: the tables are the repository's published result, so
// a refactor that moves one cell must show up as a digest diff.
func TestTableDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	var b strings.Builder
	for _, table := range allTables(t) {
		fmt.Fprintf(&b, "%s %x\n", table.ID, sha256.Sum256([]byte(table.Markdown())))
	}
	const path = "testdata/table_digests.txt"
	if *updateDigests {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("table digests changed:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestMarkdownRendering(t *testing.T) {
	tb := Table{
		ID:     "EX",
		Title:  "demo",
		Paper:  "Figure 0",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note."},
	}
	md := tb.Markdown()
	for _, want := range []string{"### EX — demo", "| a | b |", "| 1 | 2 |", "note.", "Figure 0"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestTablesSelection asserts Tables builds exactly the requested
// experiments, in index order, without running the rest.
func TestTablesSelection(t *testing.T) {
	tables, err := Tables([]string{"E5", "E1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E1" || tables[1].ID != "E5" {
		got := make([]string, len(tables))
		for i, tb := range tables {
			got[i] = tb.ID
		}
		t.Fatalf("Tables([E5 E1]) built %v, want [E1 E5]", got)
	}
	// A typo'd id must error, not silently drop the table.
	if _, err := Tables([]string{"E5", "E61"}); err == nil || !strings.Contains(err.Error(), "E61") {
		t.Fatalf("Tables with unknown id E61: err = %v, want error naming it", err)
	}
}

// assertCampaignModesByteIdentical pins one table's byte-identity across
// campaign layouts: (a) the default single-shard in-memory mode, (b) 3
// in-process shards with checkpoints, and (c) 3 shard-only runs — one
// campaign.Run call per shard, exactly what three separate processes
// execute — then merged via -resume semantics.
func assertCampaignModesByteIdentical(t *testing.T, id string, builder func() (Table, error)) {
	t.Helper()
	defer SetCampaign(campaign.Config{})

	build := func(cfg campaign.Config) Table {
		t.Helper()
		SetCampaign(cfg)
		table, err := builder()
		if err != nil {
			t.Fatal(err)
		}
		return table
	}

	serial := build(campaign.Config{})
	if serial.Digest == "" || len(serial.Rows) == 0 {
		t.Fatalf("serial table incomplete: %+v", serial)
	}

	inproc := build(campaign.Config{Shards: 3, Shard: -1})
	if inproc.Markdown() != serial.Markdown() || inproc.Digest != serial.Digest {
		t.Fatalf("3 in-process shards diverge from serial:\n%s\nvs\n%s", inproc.Markdown(), serial.Markdown())
	}

	dir := t.TempDir()
	for s := 0; s < 3; s++ {
		shard := build(campaign.Config{Shards: 3, Shard: s, Dir: dir})
		if !shard.Partial || shard.Rows != nil {
			t.Fatalf("shard-only run %d returned a full table: %+v", s, shard)
		}
		if _, err := os.Stat(campaign.ShardPath(dir, id, 3, s)); err != nil {
			t.Fatalf("shard %d checkpoint not written: %v", s, err)
		}
	}
	merged := build(campaign.Config{Shards: 3, Shard: -1, Dir: dir, Resume: true})
	if merged.Markdown() != serial.Markdown() || merged.Digest != serial.Digest {
		t.Fatalf("merged multi-process table diverges from serial:\n%s\nvs\n%s", merged.Markdown(), serial.Markdown())
	}

	// A damaged checkpoint must be rejected by a bare merge.
	path := campaign.ShardPath(dir, id, 3, 1)
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Merge[[]string](dir, id, 3, 3); err == nil {
		t.Fatal("merge accepted a corrupt shard checkpoint")
	}
}

// TestCampaignModesByteIdentical is the acceptance pin at the experiments
// layer (reduction workload, E1).
func TestCampaignModesByteIdentical(t *testing.T) {
	assertCampaignModesByteIdentical(t, "E1", E1SigmaToHSigmaKnown)
}

// TestE20CampaignModesByteIdentical extends the pin to the churn-consensus
// table: the rejoin protocol, decision-stability monitoring, and the churn
// cross-checks must all be deterministic under every shard layout.
func TestE20CampaignModesByteIdentical(t *testing.T) {
	assertCampaignModesByteIdentical(t, "E20", E20ChurnConsensus)
}

// TestE21CampaignModesByteIdentical pins serial-vs-parallel byte-identity
// at population scale: the lazy fan-out fate streams and the streaming
// verifiers must be exactly as deterministic at n=50,000 as the eager
// path was at n=50 — same digest whatever the shard/worker layout.
func TestE21CampaignModesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the population-scaling table four times")
	}
	assertCampaignModesByteIdentical(t, "E21", E21PopulationScaling)
}
