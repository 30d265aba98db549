package trace

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzEvents is the event shape both the fuzz seeds and gen_corpus.go
// encode — keep the two in sync.
func fuzzEvents() []Event {
	return []Event{
		{Time: 1, Kind: KindBroadcast, PID: 0, MsgTag: "HB"},
		{Time: 1, Kind: KindDeliver, PID: 1, MsgTag: "HB"},
		{Time: 3, Kind: KindDrop, PID: 2, MsgTag: "HB", Detail: "sender crashed mid-broadcast"},
		{Time: 7, Kind: KindCrash, PID: 2},
		{Time: 9, Kind: KindTimer, PID: 0, MsgTag: "T"},
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
	// Seed with a valid stream, its truncations, and targeted
	// mutations (bad magic, bad version, wild lengths, corrupt index and
	// metadata, trailing bytes) so the fuzzer starts on the format's
	// interesting edges rather than random bytes.
	events := fuzzEvents()
	var buf bytes.Buffer
	sink := NewBinarySink(&buf)
	sink.FrameEvents = 2 // several frames from five events
	sink.SetMeta(&Meta{Algo: "fig8", N: 3, L: 2, Seed: 1})
	if err := sink.Spill(events); err != nil {
		f.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	badMagic := bytes.Clone(valid)
	badMagic[0] ^= 0xff
	f.Add(badMagic)
	badVersion := bytes.Clone(valid)
	badVersion[7] = 0x7f
	f.Add(badVersion)
	wildLen := bytes.Clone(valid)
	for i := 8; i < len(wildLen); i++ {
		wildLen[i] = 0xff
	}
	f.Add(wildLen)
	// v2-specific edges: body intact, index/trailer corrupted; metadata
	// cut mid-JSON; bytes after the trailer; a v1 header (rejected by name)
	// alone and with bytes behind it.
	corruptIndex := bytes.Clone(valid)
	for i := len(corruptIndex) - 40; i < len(corruptIndex)-16; i++ {
		corruptIndex[i] ^= 0x55
	}
	f.Add(corruptIndex)
	f.Add(valid[:12]) // magic + truncated metadata
	f.Add(append(bytes.Clone(valid), 0x00))
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
