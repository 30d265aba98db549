package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// FuzzReadShard writes arbitrary bytes where readShard looks for one shard
// of a seven-scenario, three-shard campaign and reads them back. Seeds are
// the checkpoints writeShard leaves for each shard, plus
// testdata/fuzz/FuzzReadShard. On any input readShard must return, not
// panic; an error must name the checkpoint file it read; and a shard it
// accepts must be the planned one: the planned number of rows, each valid
// compact JSON, whose digest is the one the file records.
func FuzzReadShard(f *testing.F) {
	const (
		id     = "E6"
		n      = 7
		shards = 3
	)
	seedDir := f.TempDir()
	for s, r := range Plan(n, shards) {
		rows := make([]json.RawMessage, 0, r.To-r.From)
		for i := r.From; i < r.To; i++ {
			rows = append(rows, json.RawMessage(fmt.Sprintf(`{"index":%d,"out":"result-%d"}`, i, i)))
		}
		if err := writeShard(seedDir, id, n, shards, s, r, rows); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(ShardPath(seedDir, id, shards, s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, uint8(s))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, blob []byte, shard uint8) {
		s := int(shard) % shards
		path := ShardPath(dir, id, shards, s)
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		rows, err := readShard(dir, id, n, shards, s)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("readShard(%q): error %q does not name %s", blob, err, path)
			}
			return
		}
		want := Plan(n, shards)[s]
		if len(rows) != want.To-want.From {
			t.Fatalf("readShard(%q) accepted %d rows for range %v", blob, len(rows), want)
		}
		for i, row := range rows {
			var compact bytes.Buffer
			if err := json.Compact(&compact, row); err != nil || !bytes.Equal(compact.Bytes(), row) {
				t.Fatalf("readShard(%q): row %d %q is not compact JSON", blob, i, row)
			}
		}
		var sf shardFile
		if err := json.Unmarshal(blob, &sf); err != nil {
			t.Fatalf("readShard(%q) accepted a file that does not decode: %v", blob, err)
		}
		if got := shardDigest(id, n, shards, s, want, rows); got != sf.Digest {
			t.Fatalf("readShard(%q) accepted rows with digest %s, recorded %s", blob, got, sf.Digest)
		}
	})
}
