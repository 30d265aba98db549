package trace

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the seed-* files of testdata/fuzz/FuzzBinaryReader from fuzzSeeds")

// fuzzEvents is the event shape the fuzz seeds encode.
func fuzzEvents() []Event {
	return []Event{
		{Time: 1, Kind: KindBroadcast, PID: 0, MsgTag: "HB"},
		{Time: 1, Kind: KindDeliver, PID: 1, MsgTag: "HB"},
		{Time: 3, Kind: KindDrop, PID: 2, MsgTag: "HB", Detail: "sender crashed mid-broadcast"},
		{Time: 7, Kind: KindCrash, PID: 2},
		{Time: 9, Kind: KindTimer, PID: 0, MsgTag: "T"},
	}
}

// fuzzSeed is one named FuzzBinaryReader seed.
type fuzzSeed struct {
	name string
	data []byte
}

// fuzzSeeds are the seeds FuzzBinaryReader starts from: a valid stream of
// fuzzEvents, its truncations, and targeted mutations (bad magic, bad
// version, wild lengths; and v2's edges: body intact with the index and
// trailer corrupted, metadata cut mid-JSON, bytes after the trailer), so
// the fuzzer starts on the format's interesting edges rather than random
// bytes. TestFuzzSeedCorpus keeps them checked in under their names.
func fuzzSeeds(tb testing.TB) []fuzzSeed {
	tb.Helper()
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	sink.FrameEvents = 2 // several frames from five events
	sink.SetMeta(&Meta{Algo: "fig8", N: 3, L: 2, Seed: 1})
	if err := sink.Spill(fuzzEvents()); err != nil {
		tb.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()

	badMagic := bytes.Clone(valid)
	badMagic[0] ^= 0xff
	badVersion := bytes.Clone(valid)
	badVersion[7] = 0x7f
	wildLen := bytes.Clone(valid)
	for i := 8; i < len(wildLen); i++ {
		wildLen[i] = 0xff
	}
	corruptIndex := bytes.Clone(valid)
	for i := len(corruptIndex) - 40; i < len(corruptIndex)-16; i++ {
		corruptIndex[i] ^= 0x55
	}
	return []fuzzSeed{
		{"seed-valid", valid},
		{"seed-truncated", valid[:len(valid)/2]},
		{"seed-header-only", valid[:8]},
		{"seed-empty", []byte{}},
		{"seed-bad-magic", badMagic},
		{"seed-bad-version", badVersion},
		{"seed-wild-len", wildLen},
		{"seed-corrupt-index", corruptIndex},
		{"seed-meta-cut", valid[:12]}, // magic + truncated metadata
		{"seed-trailing-byte", append(bytes.Clone(valid), 0x00)},
	}
}

// TestFuzzSeedCorpus holds testdata/fuzz/FuzzBinaryReader/seed-* to
// fuzzSeeds, in the go-fuzz corpus file format, so `go test -run Fuzz`
// replays them without a fuzzing engine; -update rewrites them.
// seed-v1 and seed-v1-garbage in that directory are not among them: they
// are real version-1 streams from when a v1 encoder existed, kept as seeds
// the reader must reject by name (ErrBinaryTrace, "unsupported version 1").
func TestFuzzSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryReader")
	for _, s := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s.data)))
		path := filepath.Join(dir, s.name)
		if *update {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != body {
			t.Errorf("%s differs from fuzzSeeds (go test -run TestFuzzSeedCorpus -update ./internal/trace rewrites it)", path)
		}
	}
}

// FuzzBinaryReader pins the decoder's corruption contract: arbitrary input
// must never panic, and every decode failure must wrap ErrBinaryTrace so
// callers can tell corruption from I/O errors — through the streaming
// reader and the random-access opener alike — and on every input the
// decoder must agree with the reference decoder (reference_test.go) on
// events, error text and index. Inputs that do decode are re-encoded and
// decoded again — the decoder must be a left inverse of the encoder on its
// own output.
func FuzzBinaryReader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s.data)
	}
	// A v1 header (rejected by name), alone and with bytes behind it.
	f.Add(v1Header)
	f.Add(append(bytes.Clone(v1Header), 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The window decoder must be indistinguishable from the decoder it
		// replaced — events, error text, index — at a window most records
		// straddle and at the production one, through Next and through
		// NextBatch; and so must every frame reader random access hands
		// out, which upholds the same corruption contract on the same
		// bytes.
		for _, window := range testWindows {
			got := againstReference(t, data, window, plain)
			batchesAgainstNext(t, data, window, 7, got)
		}
		framesAgainstReference(t, data)

		decoded, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBinaryTrace) {
				t.Fatalf("decode error does not wrap ErrBinaryTrace: %v", err)
			}
			return
		}
		// Successful decode: re-encoding must reproduce a stream that
		// decodes to the same events.
		var out bytes.Buffer
		s := NewBinarySink(&out)
		if err := s.Spill(decoded); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("re-encode flush: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded stream: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round trip changed event count: %d -> %d", len(decoded), len(again))
		}
		for i := range again {
			if again[i] != decoded[i] {
				t.Fatalf("round trip changed event %d: %v -> %v", i, decoded[i], again[i])
			}
		}
	})
}
