//go:build ignore

// Generates the checked-in seed corpus for FuzzBinaryReader:
//
//	go run gen_corpus.go
//
// writes testdata/fuzz/FuzzBinaryReader/seed-* in the go-fuzz corpus file
// format. The seeds mirror the f.Add cases (a valid stream, truncations,
// and targeted header/index/trailer mutations) so `go test -run Fuzz` —
// the CI smoke — exercises them without a fuzzing engine.
//
// seed-v1 and seed-v1-garbage in that directory are not written here: they
// are real version-1 streams from when a v1 encoder existed, kept as seeds
// the reader must reject by name (ErrBinaryTrace, "unsupported version 1").
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/trace"
)

func main() {
	events := []trace.Event{
		{Time: 1, Kind: trace.KindBroadcast, PID: 0, MsgTag: "HB"},
		{Time: 1, Kind: trace.KindDeliver, PID: 1, MsgTag: "HB"},
		{Time: 3, Kind: trace.KindDrop, PID: 2, MsgTag: "HB", Detail: "sender crashed mid-broadcast"},
		{Time: 7, Kind: trace.KindCrash, PID: 2},
		{Time: 9, Kind: trace.KindTimer, PID: 0, MsgTag: "T"},
	}
	var buf bytes.Buffer
	sink := trace.NewBinarySink(&buf)
	sink.FrameEvents = 2 // several frames from five events
	sink.SetMeta(&trace.Meta{Algo: "fig8", N: 3, L: 2, Seed: 1})
	if err := sink.Spill(events); err != nil {
		log.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
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

	seeds := map[string][]byte{
		"seed-valid":         valid,
		"seed-truncated":     valid[:len(valid)/2],
		"seed-header-only":   valid[:8],
		"seed-empty":         {},
		"seed-bad-magic":     badMagic,
		"seed-bad-version":   badVersion,
		"seed-wild-len":      wildLen,
		"seed-corrupt-index": corruptIndex,
		"seed-meta-cut":      valid[:12],
		"seed-trailing-byte": append(bytes.Clone(valid), 0x00),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryReader")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
