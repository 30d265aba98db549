package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sweep"
)

// Config selects how a campaign executes.
type Config struct {
	// Shards is the total shard count; <= 1 means a single shard.
	Shards int
	// Shard runs only the given shard index when >= 0 and Shards > 1
	// (multi-process fan-out: one process per shard; requires Dir). Any
	// negative value runs every shard in-process and merges. The zero
	// value is harmless with the zero Config (shard 0 of 1 is the whole
	// campaign), but multi-shard run-all configs must set Shard to -1.
	Shard int
	// Dir is the checkpoint directory. Empty means fully in-memory: no
	// files are read or written.
	Dir string
	// Resume skips shards whose checkpoint in Dir already verifies and
	// re-runs exactly the others.
	Resume bool
	// Workers is the per-shard sweep parallelism (0 = sweep default).
	Workers int
	// Cost, when non-nil, estimates scenario i's running time (i is the
	// campaign's global scenario index) and is handed to each shard's
	// sweep as sweep.Options.Cost: a scheduling hint. It is no part of the
	// campaign's identity — validation, digests and checkpoints never see
	// it, and rows are the same with or without it.
	Cost func(i int) int64
}

// shardOnly reports whether cfg selects a single shard of a larger
// campaign (multi-process mode: no merged result is produced).
func (c Config) shardOnly() bool { return c.Shards > 1 && c.Shard >= 0 }

func (c Config) validate() error {
	shards := c.Shards
	if shards < 1 {
		shards = 1
	}
	if c.Shard >= shards {
		return fmt.Errorf("campaign: -shard %d out of range (have %d shards)", c.Shard, shards)
	}
	if c.shardOnly() && c.Dir == "" {
		return errors.New("campaign: running a single shard requires a checkpoint directory (its output would be lost)")
	}
	if c.Resume && c.Dir == "" {
		return errors.New("campaign: -resume requires a checkpoint directory")
	}
	return nil
}

// Range is one shard's half-open input index range [From, To).
type Range struct{ From, To int }

// Plan splits n inputs into the given number of contiguous shards. The
// split is a pure function of (n, shards): shard i covers
// [i*n/shards, (i+1)*n/shards), so every index appears in exactly one
// shard, shard sizes differ by at most one, and the same plan is computed
// by every process of a multi-process campaign.
func Plan(n, shards int) []Range {
	if shards < 1 {
		shards = 1
	}
	out := make([]Range, shards)
	for i := range out {
		out[i] = Range{From: i * n / shards, To: (i + 1) * n / shards}
	}
	return out
}

// Result is a campaign's outcome.
type Result[R any] struct {
	// Rows holds the merged per-scenario results in input order. Nil when
	// Complete is false.
	Rows []R
	// Digest is the campaign digest: SHA-256 over the campaign id, the
	// scenario count, and every row's canonical JSON in input order. It is
	// independent of the shard layout and worker count. Empty when
	// Complete is false.
	Digest string
	// Complete is false when Config.Shard selected a single shard, so only
	// that shard's checkpoint was produced and nothing was merged.
	Complete bool
	// Ran lists the shard indices this call actually executed (resumed
	// shards are not listed).
	Ran []int
}

// Run executes the campaign id over n scenarios, f(i) producing scenario
// i's row. See the package comment for the sharding, checkpoint, resume,
// and determinism semantics. Errors come from the configuration, the
// filesystem, row JSON encoding, or checkpoint verification at merge —
// never from f, which is expected to encode per-scenario failures in its
// row (scenario panics propagate, as in sweep).
func Run[R any](cfg Config, id string, n int, f func(i int) R) (Result[R], error) {
	if err := cfg.validate(); err != nil {
		return Result[R]{}, err
	}
	if id == "" {
		return Result[R]{}, errors.New("campaign: empty campaign id")
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	plan := Plan(n, shards)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return Result[R]{}, fmt.Errorf("campaign %s: %w", id, err)
		}
	}

	var res Result[R]
	byShard := make([][]json.RawMessage, shards)
	for s, r := range plan {
		if cfg.Shard >= 0 && s != cfg.Shard {
			continue
		}
		if cfg.Resume {
			if rows, err := readShard(cfg.Dir, id, n, shards, s); err == nil {
				byShard[s] = rows
				continue
			}
			// Unverified (missing/corrupt/mismatched) shard: re-run it.
		}
		rows, err := runShard(cfg, r, f)
		if err != nil {
			return Result[R]{}, fmt.Errorf("campaign %s shard %d/%d: %w", id, s, shards, err)
		}
		if cfg.Dir != "" {
			if err := writeShard(cfg.Dir, id, n, shards, s, r, rows); err != nil {
				return Result[R]{}, err
			}
			// Read back what actually landed on disk, so the merged table
			// is exactly what the checkpoint verifies to — every shard of
			// the result has passed verification from disk exactly once
			// (resumed shards in the pre-check above, fresh ones here).
			if rows, err = readShard(cfg.Dir, id, n, shards, s); err != nil {
				return Result[R]{}, err
			}
		}
		byShard[s] = rows
		res.Ran = append(res.Ran, s)
	}
	if cfg.shardOnly() {
		return res, nil
	}

	var all []json.RawMessage
	for _, rows := range byShard {
		all = append(all, rows...)
	}
	return assemble[R](id, n, all, res.Ran)
}

// Merge reassembles a campaign's checkpoints in input order. It errors on
// missing, truncated, corrupt, or digest/identity-mismatched shard files;
// it runs nothing.
func Merge[R any](dir, id string, n, shards int) (Result[R], error) {
	if shards < 1 {
		shards = 1
	}
	var all []json.RawMessage
	for s := range Plan(n, shards) {
		rows, err := readShard(dir, id, n, shards, s)
		if err != nil {
			return Result[R]{}, err
		}
		all = append(all, rows...)
	}
	return assemble[R](id, n, all, nil)
}

// runShard executes one shard's index range on the sweep pool and
// normalizes every row through its canonical JSON encoding.
func runShard[R any](cfg Config, r Range, f func(i int) R) ([]json.RawMessage, error) {
	idx := make([]int, r.To-r.From)
	for j := range idx {
		idx[j] = r.From + j
	}
	opt := sweep.Options{Workers: cfg.Workers}
	if cfg.Cost != nil {
		opt.Cost = func(j int) int64 { return cfg.Cost(idx[j]) }
	}
	rows := sweep.MapOpt(opt, idx, func(_ int, i int) R {
		return f(i)
	})
	out := make([]json.RawMessage, len(rows))
	for j := range rows {
		raw, err := json.Marshal(rows[j])
		if err != nil {
			return nil, fmt.Errorf("scenario %d result not JSON-encodable: %w", idx[j], err)
		}
		out[j] = raw
	}
	return out, nil
}

func assemble[R any](id string, n int, rawRows []json.RawMessage, ran []int) (Result[R], error) {
	res := Result[R]{
		Rows:     make([]R, len(rawRows)),
		Digest:   campaignDigest(id, n, rawRows),
		Complete: true,
		Ran:      ran,
	}
	for i, raw := range rawRows {
		if err := json.Unmarshal(raw, &res.Rows[i]); err != nil {
			return Result[R]{}, fmt.Errorf("campaign %s: row %d does not decode: %w", id, i, err)
		}
	}
	return res, nil
}

// shardFile is the checkpoint format: one JSON object per shard.
type shardFile struct {
	Campaign string            `json:"campaign"`
	Total    int               `json:"total"`  // campaign scenario count
	Shards   int               `json:"shards"` // campaign shard count
	Shard    int               `json:"shard"`  // this shard's index
	From     int               `json:"from"`   // input range [From, To)
	To       int               `json:"to"`
	Rows     []json.RawMessage `json:"rows"` // one canonical JSON row per scenario
	Digest   string            `json:"digest"`
}

// ShardPath returns the checkpoint file path for one shard of a campaign.
func ShardPath(dir, id string, shards, shard int) string {
	safe := []byte(id)
	for i, c := range safe {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			safe[i] = '_'
		}
	}
	return filepath.Join(dir, fmt.Sprintf("%s-shard-%04d-of-%04d.json", safe, shard, shards))
}

func writeShard(dir, id string, n, shards, shard int, r Range, rows []json.RawMessage) error {
	sf := shardFile{
		Campaign: id, Total: n, Shards: shards, Shard: shard, From: r.From, To: r.To,
		Rows:   rows,
		Digest: shardDigest(id, n, shards, shard, r, rows),
	}
	blob, err := json.MarshalIndent(sf, "", "\t")
	if err != nil {
		return fmt.Errorf("campaign %s shard %d: %w", id, shard, err)
	}
	path := ShardPath(dir, id, shards, shard)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("campaign %s shard %d: %w", id, shard, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("campaign %s shard %d: %w", id, shard, err)
	}
	return nil
}

// readShard loads and fully verifies one shard checkpoint: identity
// fields must match the requested campaign, the row count must match the
// planned range, and the recomputed digest must equal the recorded one.
func readShard(dir, id string, n, shards, shard int) ([]json.RawMessage, error) {
	path := ShardPath(dir, id, shards, shard)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: missing shard checkpoint %s: %w", id, path, err)
	}
	var sf shardFile
	if err := json.Unmarshal(blob, &sf); err != nil {
		return nil, fmt.Errorf("campaign %s: corrupt shard checkpoint %s (truncated or not JSON): %w", id, path, err)
	}
	// Restore each row's canonical compact encoding: the checkpoint file is
	// written indented (MarshalIndent re-formats embedded RawMessages), and
	// digests — like the determinism contract — are defined over the
	// compact bytes.
	for i, row := range sf.Rows {
		var buf bytes.Buffer
		if err := json.Compact(&buf, row); err != nil {
			return nil, fmt.Errorf("campaign %s: corrupt shard checkpoint %s: row %d: %w", id, path, i, err)
		}
		sf.Rows[i] = buf.Bytes()
	}
	want := Plan(n, shards)[shard]
	if sf.Campaign != id || sf.Total != n || sf.Shards != shards || sf.Shard != shard ||
		sf.From != want.From || sf.To != want.To || len(sf.Rows) != want.To-want.From {
		return nil, fmt.Errorf("campaign %s: shard checkpoint %s does not match (campaign %q shard %d/%d range [%d,%d) with %d rows; want %q shard %d/%d range [%d,%d) with %d rows)",
			id, path, sf.Campaign, sf.Shard, sf.Shards, sf.From, sf.To, len(sf.Rows),
			id, shard, shards, want.From, want.To, want.To-want.From)
	}
	if got := shardDigest(id, n, shards, shard, want, sf.Rows); got != sf.Digest {
		return nil, fmt.Errorf("campaign %s: shard checkpoint %s digest mismatch (recorded %s, recomputed %s)", id, path, sf.Digest, got)
	}
	return sf.Rows, nil
}

// shardDigest fingerprints one shard: its identity plus every row's
// canonical JSON. Row JSON is length-prefixed so no two row sequences
// collide by concatenation.
func shardDigest(id string, n, shards, shard int, r Range, rows []json.RawMessage) string {
	h := sha256.New()
	fmt.Fprintf(h, "campaign %s total %d shards %d shard %d range %d %d\n", id, n, shards, shard, r.From, r.To)
	for _, row := range rows {
		fmt.Fprintf(h, "%d:", len(row))
		h.Write(row)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// campaignDigest fingerprints the merged campaign. It deliberately omits
// the shard layout: the digest of a campaign is identical whether it ran
// as 1 shard or as N, in one process or many.
func campaignDigest(id string, n int, rows []json.RawMessage) string {
	h := sha256.New()
	fmt.Fprintf(h, "campaign %s total %d\n", id, n)
	for _, row := range rows {
		fmt.Fprintf(h, "%d:", len(row))
		h.Write(row)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
