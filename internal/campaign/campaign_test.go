package campaign_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// row is a representative scenario result: flat, JSON-lossless.
type row struct {
	Index int    `json:"index"`
	Out   string `json:"out"`
}

// scenario is a deterministic per-index "experiment".
func scenario(i int) row {
	return row{Index: i, Out: fmt.Sprintf("result-%d-%d", i, i*i+7)}
}

func TestPlanCoversAllIndicesContiguously(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		for _, shards := range []int{1, 2, 3, 7, 16, 120} {
			plan := campaign.Plan(n, shards)
			if len(plan) != shards {
				t.Fatalf("Plan(%d,%d): %d ranges", n, shards, len(plan))
			}
			next, minSz, maxSz := 0, n, 0
			for s, r := range plan {
				if r.From != next || r.To < r.From {
					t.Fatalf("Plan(%d,%d) shard %d = %+v, want contiguous from %d", n, shards, s, r, next)
				}
				sz := r.To - r.From
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				next = r.To
			}
			if next != n {
				t.Fatalf("Plan(%d,%d) covers [0,%d), want [0,%d)", n, shards, next, n)
			}
			if n >= shards && maxSz-minSz > 1 {
				t.Fatalf("Plan(%d,%d) unbalanced: sizes differ by %d", n, shards, maxSz-minSz)
			}
		}
	}
}

// TestModesByteIdentical is the core acceptance pin: 1 serial shard, N
// in-process shards (several worker counts), and N separate Run calls (the
// multi-process shape) merged from checkpoints all yield identical rows
// and identical campaign digests.
func TestModesByteIdentical(t *testing.T) {
	const n = 11
	serial, err := campaign.Run(campaign.Config{Workers: 1}, "modes", n, scenario)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Complete || len(serial.Rows) != n || serial.Digest == "" {
		t.Fatalf("serial result incomplete: %+v", serial)
	}
	for i, r := range serial.Rows {
		if r != scenario(i) {
			t.Fatalf("row %d = %+v, want %+v (JSON round-trip must be lossless)", i, r, scenario(i))
		}
	}

	for _, shards := range []int{1, 2, 3, 4, 11, 16} {
		for _, workers := range []int{0, 1, 4} {
			got, err := campaign.Run(campaign.Config{Shards: shards, Shard: -1, Workers: workers}, "modes", n, scenario)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, serial.Rows) || got.Digest != serial.Digest {
				t.Fatalf("shards=%d workers=%d diverges: digest %s vs %s", shards, workers, got.Digest, serial.Digest)
			}
		}
	}

	// Multi-process shape: one Run call per shard (disjoint invocations,
	// shared only through the checkpoint directory), then a pure merge.
	dir := t.TempDir()
	const shards = 4
	for s := 0; s < shards; s++ {
		res, err := campaign.Run(campaign.Config{Shards: shards, Shard: s, Dir: dir}, "modes", n, scenario)
		if err != nil {
			t.Fatal(err)
		}
		if res.Complete || !reflect.DeepEqual(res.Ran, []int{s}) {
			t.Fatalf("shard-only run %d: %+v", s, res)
		}
	}
	merged, err := campaign.Merge[row](dir, "modes", n, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Rows, serial.Rows) || merged.Digest != serial.Digest {
		t.Fatalf("merged separate-process campaign diverges from serial: digest %s vs %s", merged.Digest, serial.Digest)
	}
}

// TestShardDigestsStableAcrossWorkers re-runs the same shard at different
// worker counts and demands byte-identical checkpoint digests.
func TestShardDigestsStableAcrossWorkers(t *testing.T) {
	digests := func(workers int) []string {
		dir := t.TempDir()
		if _, err := campaign.Run(campaign.Config{Shards: 3, Shard: -1, Dir: dir, Workers: workers}, "wstab", 10, scenario); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 3)
		for s := range out {
			blob, err := os.ReadFile(campaign.ShardPath(dir, "wstab", 3, s))
			if err != nil {
				t.Fatal(err)
			}
			var sf struct {
				Digest string `json:"digest"`
			}
			if err := json.Unmarshal(blob, &sf); err != nil {
				t.Fatal(err)
			}
			if sf.Digest == "" {
				t.Fatalf("shard %d has empty digest", s)
			}
			out[s] = sf.Digest
		}
		return out
	}
	base := digests(1)
	for _, workers := range []int{2, 8} {
		if got := digests(workers); !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d shard digests %v, want %v", workers, got, base)
		}
	}
}

// TestCostChangesNoDigestOrCheckpoint: Config.Cost decides which
// scenario of a shard starts first and nothing else. A sharded run that
// sets it — reversing every shard's dispatch — produces the rows, the
// campaign digest and, byte for byte, the checkpoint files of the same
// run without it; and each shard asks for the cost of its own scenarios
// by their campaign-wide index, not by their position in the shard.
func TestCostChangesNoDigestOrCheckpoint(t *testing.T) {
	const n, shards = 11, 3
	plainDir, costDir := t.TempDir(), t.TempDir()
	plain, err := campaign.Run(campaign.Config{Shards: shards, Shard: -1, Dir: plainDir, Workers: 4}, "cost", n, scenario)
	if err != nil {
		t.Fatal(err)
	}
	var asked []int // Cost runs on the calling goroutine: no lock
	costed, err := campaign.Run(campaign.Config{Shards: shards, Shard: -1, Dir: costDir, Workers: 4,
		Cost: func(i int) int64 { asked = append(asked, i); return int64(i) }}, "cost", n, scenario)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(costed.Rows, plain.Rows) || costed.Digest != plain.Digest {
		t.Fatalf("Cost changed the campaign: digest %s, want %s", costed.Digest, plain.Digest)
	}
	for s := 0; s < shards; s++ {
		want, err := os.ReadFile(campaign.ShardPath(plainDir, "cost", shards, s))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(campaign.ShardPath(costDir, "cost", shards, s))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("shard %d checkpoint differs with Cost set", s)
		}
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(asked, want) {
		t.Errorf("Cost asked about scenarios %v, want each campaign index once, shard by shard: %v", asked, want)
	}
}

// corrupt rewrites a shard checkpoint through fn.
func corrupt(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(blob), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergeRejectsDamagedShards pins the integrity errors: missing,
// truncated, digest-mismatched, and identity-mismatched checkpoints are
// all rejected with errors that name the offending shard file.
func TestMergeRejectsDamagedShards(t *testing.T) {
	const n, shards = 9, 3
	fresh := func() string {
		dir := t.TempDir()
		if _, err := campaign.Run(campaign.Config{Shards: shards, Shard: -1, Dir: dir}, "integ", n, scenario); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	expectErr := func(dir, wantSub string) {
		t.Helper()
		_, err := campaign.Merge[row](dir, "integ", n, shards)
		if err == nil {
			t.Fatalf("merge succeeded, want error containing %q", wantSub)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("merge error %q does not mention %q", err, wantSub)
		}
		if !strings.Contains(err.Error(), campaign.ShardPath("", "integ", shards, 1)) {
			t.Fatalf("merge error %q does not name the shard file", err)
		}
	}

	dir := fresh()
	target := campaign.ShardPath(dir, "integ", shards, 1)

	// Baseline sanity: intact checkpoints merge.
	if _, err := campaign.Merge[row](dir, "integ", n, shards); err != nil {
		t.Fatal(err)
	}

	// Missing shard file.
	if err := os.Remove(target); err != nil {
		t.Fatal(err)
	}
	expectErr(dir, "missing")

	// Truncated / non-JSON file.
	dir = fresh()
	target = campaign.ShardPath(dir, "integ", shards, 1)
	corrupt(t, target, func(b []byte) []byte { return b[:len(b)/2] })
	expectErr(dir, "corrupt")

	// Valid JSON whose rows were tampered with: digest mismatch.
	dir = fresh()
	target = campaign.ShardPath(dir, "integ", shards, 1)
	corrupt(t, target, func(b []byte) []byte {
		return []byte(strings.Replace(string(b), "result-3", "result-X", 1))
	})
	expectErr(dir, "digest mismatch")

	// A checkpoint from a different campaign layout: identity mismatch.
	dir = fresh()
	other := t.TempDir()
	if _, err := campaign.Run(campaign.Config{Shards: shards, Shard: -1, Dir: other}, "integ", n-1, scenario); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(campaign.ShardPath(other, "integ", shards, 1), campaign.ShardPath(dir, "integ", shards, 1)); err != nil {
		t.Fatal(err)
	}
	expectErr(dir, "does not match")
}

// TestResumeRerunsExactlyUnverifiedShards kills two of four shards (one
// deleted, one corrupted) and asserts a -resume run re-executes exactly
// those shards' scenario indices, nothing else, and still merges to the
// serial result.
func TestResumeRerunsExactlyUnverifiedShards(t *testing.T) {
	const n, shards = 12, 4
	dir := t.TempDir()

	var mu sync.Mutex
	var executed []int
	counted := func(i int) row {
		mu.Lock()
		executed = append(executed, i)
		mu.Unlock()
		return scenario(i)
	}

	cfg := campaign.Config{Shards: shards, Shard: -1, Dir: dir}
	first, err := campaign.Run(cfg, "resume", n, counted)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != n || !reflect.DeepEqual(first.Ran, []int{0, 1, 2, 3}) {
		t.Fatalf("first run executed %v, ran shards %v", executed, first.Ran)
	}

	// Simulate a killed campaign: shard 1 never finished (file missing),
	// shard 3 was damaged on disk.
	if err := os.Remove(campaign.ShardPath(dir, "resume", shards, 1)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, campaign.ShardPath(dir, "resume", shards, 3), func(b []byte) []byte { return b[:len(b)-9] })

	executed = nil
	cfg.Resume = true
	second, err := campaign.Run(cfg, "resume", n, counted)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(executed)
	want := []int{3, 4, 5, 9, 10, 11} // shard 1 = [3,6), shard 3 = [9,12)
	if !reflect.DeepEqual(executed, want) {
		t.Fatalf("resume executed indices %v, want exactly the unverified shards' %v", executed, want)
	}
	if !reflect.DeepEqual(second.Ran, []int{1, 3}) {
		t.Fatalf("resume ran shards %v, want [1 3]", second.Ran)
	}
	if second.Digest != first.Digest || !reflect.DeepEqual(second.Rows, first.Rows) {
		t.Fatalf("resumed campaign diverges: digest %s vs %s", second.Digest, first.Digest)
	}

	// A third resume with everything verified re-runs nothing.
	executed = nil
	third, err := campaign.Run(cfg, "resume", n, counted)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 0 || len(third.Ran) != 0 {
		t.Fatalf("fully-checkpointed resume executed %v, ran %v; want nothing", executed, third.Ran)
	}
	if third.Digest != first.Digest {
		t.Fatalf("digest changed on no-op resume: %s vs %s", third.Digest, first.Digest)
	}
}

func TestConfigValidation(t *testing.T) {
	noop := func(int) row { return row{} }
	if _, err := campaign.Run(campaign.Config{Shards: 3, Shard: 3, Dir: t.TempDir()}, "v", 3, noop); err == nil {
		t.Error("shard index == shard count accepted")
	}
	if _, err := campaign.Run(campaign.Config{Shards: 3, Shard: 1}, "v", 3, noop); err == nil {
		t.Error("shard-only run without checkpoint dir accepted")
	}
	if _, err := campaign.Run(campaign.Config{Resume: true}, "v", 3, noop); err == nil {
		t.Error("resume without checkpoint dir accepted")
	}
	if _, err := campaign.Run(campaign.Config{}, "", 3, noop); err == nil {
		t.Error("empty campaign id accepted")
	}
}

// TestEmptyAndTinyCampaigns covers n = 0 and n < shards (some shards
// empty): both must run, checkpoint, and merge cleanly.
func TestEmptyAndTinyCampaigns(t *testing.T) {
	res, err := campaign.Run(campaign.Config{}, "empty", 0, scenario)
	if err != nil || !res.Complete || len(res.Rows) != 0 {
		t.Fatalf("empty campaign: %+v, %v", res, err)
	}
	dir := t.TempDir()
	tiny, err := campaign.Run(campaign.Config{Shards: 5, Shard: -1, Dir: dir}, "tiny", 2, scenario)
	if err != nil || len(tiny.Rows) != 2 {
		t.Fatalf("tiny campaign: %+v, %v", tiny, err)
	}
	direct, err := campaign.Run(campaign.Config{}, "tiny", 2, scenario)
	if err != nil || direct.Digest != tiny.Digest {
		t.Fatalf("tiny sharded digest %s != direct %s (%v)", tiny.Digest, direct.Digest, err)
	}
}
