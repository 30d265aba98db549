package hunt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeEntry feeds DecodeEntry arbitrary bytes, seeded with every
// checked-in corpus entry and with testdata/fuzz/FuzzDecodeEntry. On any
// input it must return, not panic. An error must name its input: it starts
// "hunt: corpus entry" and, when the bytes carry the entry's name, names
// it — the caller adds the file. An accepted entry must have a canonical
// form: its encoding is accepted and re-encodes to the same bytes, so a
// corpus entry pinned through cmd/hunt -pin never drifts by being
// rewritten. (Only the bytes are compared: an empty crash list decodes as
// an empty slice and encodes as no list, which decodes as nil — the same
// scenario.)
func FuzzDecodeEntry(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var peek struct {
			Name     string
			Scenario struct{ N int }
		}
		json.Unmarshal(data, &peek)
		if peek.Scenario.N > 1<<16 {
			return // admissible up to scenario.MaxN, but the assignment is O(n)
		}
		e, err := DecodeEntry(data)
		if err != nil {
			msg := err.Error()
			if !strings.HasPrefix(msg, "hunt: corpus entry") || !strings.Contains(msg, peek.Name) {
				t.Fatalf("DecodeEntry(%q): error %q does not name the entry %q", data, msg, peek.Name)
			}
			return
		}
		canon, err := EncodeEntry(e)
		if err != nil {
			t.Fatalf("DecodeEntry(%q) accepted %+v, which does not encode: %v", data, e, err)
		}
		back, err := DecodeEntry(canon)
		if err != nil {
			t.Fatalf("DecodeEntry(%q) accepted %+v, whose encoding %q it rejects: %v", data, e, canon, err)
		}
		if again, _ := EncodeEntry(back); string(again) != string(canon) {
			t.Fatalf("DecodeEntry(%q): encoding %q re-encodes as %q", data, canon, again)
		}
	})
}
