package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// recordRun runs the scenario m fingerprints and returns its events.
func recordRun(t *testing.T, m *trace.Meta) []trace.Event {
	t.Helper()
	sc, err := scenario.Resolve(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := sc.Run(m.Seed, rec); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}

// encodeTrace writes events as a finalized v2 trace with frames of stride
// events each.
func encodeTrace(t *testing.T, m *trace.Meta, events []trace.Event, stride int) []byte {
	t.Helper()
	var file bytes.Buffer
	sink := trace.NewBinarySink(&file)
	sink.FrameEvents = stride
	sink.SetMeta(m)
	if err := sink.Spill(events); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

func openTrace(t *testing.T, data []byte) *trace.TraceFile {
	t.Helper()
	tf, err := trace.OpenTraceFile(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

// reindex rewrites a finalized trace's index, as edit leaves it, and the
// trailer after it; the body is kept byte for byte.
func reindex(t *testing.T, data []byte, edit func(ix *trace.Index)) []byte {
	t.Helper()
	ix := *openTrace(t, data).Index()
	ix.Frames = slices.Clone(ix.Frames)
	edit(&ix)
	indexOff := binary.LittleEndian.Uint64(data[len(data)-16:])
	out := bytes.Clone(data[:indexOff])
	out = binary.AppendUvarint(out, uint64(len(ix.Frames)))
	for _, f := range ix.Frames {
		out = binary.AppendUvarint(out, f.Ordinal)
		out = binary.AppendVarint(out, f.Start)
		out = binary.AppendUvarint(out, f.Offset)
		out = binary.LittleEndian.AppendUint64(out, f.PIDBloom)
		out = binary.LittleEndian.AppendUint64(out, f.DigestBefore)
	}
	out = binary.AppendUvarint(out, ix.TotalEvents)
	out = binary.LittleEndian.AppendUint64(out, ix.TotalDigest)
	out = binary.LittleEndian.AppendUint64(out, indexOff)
	return append(out, "HDIXEND2"...)
}

// edited returns a copy of data with f applied to it.
func edited(data []byte, f func(b []byte) []byte) []byte { return f(bytes.Clone(data)) }

// TestVerifyFileMatchesVerify is VerifyFile's contract: whichever path it
// takes, its report and its error are those of Verify streaming the same
// bytes through NewBinaryReader, at any worker count — serial, a few
// shards, and more workers than the trace has frames. The inputs are a
// heartbeat trace cut into small frames, damaged every way the shard
// proof must notice, and traces it must not shard at all.
func TestVerifyFileMatchesVerify(t *testing.T) {
	hb := &trace.Meta{
		Algo: "heartbeat", N: 40, L: 4, Churn: "0.3:1", Net: "lossy:0.2:6",
		Period: 15, Beaters: 5, Seed: 11, Delta: 3,
	}
	events := recordRun(t, hb)
	healthy := encodeTrace(t, hb, events, 16)
	tf := openTrace(t, healthy)
	frames := tf.Index().Frames
	mid, last := len(frames)/2, len(frames)-1
	indexOff := binary.LittleEndian.Uint64(healthy[len(healthy)-16:])

	outside := slices.Clone(events)
	for i := len(outside) - 1; ; i-- {
		if outside[i].Kind == trace.KindDeliver {
			outside[i].PID = hb.N
			break
		}
	}
	fig8 := &trace.Meta{
		Algo: "fig8", N: 5, L: 2, T: 2, Crashes: "1:40,3:60",
		Seed: 1, Stabilize: 100, Adversary: "rotate", Delta: 3,
	}

	flip := func(off uint64) []byte {
		return edited(healthy, func(b []byte) []byte { b[off] ^= 0xff; return b })
	}
	cases := []struct {
		name    string
		data    []byte
		sharded bool // the shard path must take it whenever there are two shards
	}{
		{"healthy", healthy, true},
		{"cut_mid_frame", healthy[:frames[1].Offset+3], false},
		{"cut_before_restart", healthy[:frames[1].Offset-2], false},
		{"cut_in_trailer", healthy[:len(healthy)-1], false},
		{"flip_first_frame", flip(frames[0].Offset + 3), false},
		{"flip_mid_frame", flip(frames[mid].Offset + 3), false},
		{"flip_last_frame", flip(frames[last].Offset + 3), false},
		{"frame_offset_plus_1", reindex(t, healthy, func(ix *trace.Index) { ix.Frames[mid].Offset++ }), false},
		{"frame_offset_minus_1", reindex(t, healthy, func(ix *trace.Index) { ix.Frames[mid].Offset-- }), false},
		{"frame0_offset_plus_1", reindex(t, healthy, func(ix *trace.Index) { ix.Frames[0].Offset++ }), false},
		{"wrong_ordinal", reindex(t, healthy, func(ix *trace.Index) { ix.Frames[mid].Ordinal++ }), true},
		{"wrong_total", reindex(t, healthy, func(ix *trace.Index) { ix.TotalEvents++ }), false},
		{"end_control_overwritten", edited(healthy, func(b []byte) []byte { b[indexOff-1] = 1; return b }), false},
		{"junk_before_trailer", slices.Concat(healthy[:len(healthy)-16], []byte{0, 0}, healthy[len(healthy)-16:]), false},
		{"pid_out_of_range", encodeTrace(t, hb, outside, 16), true},
		{"consensus", encodeTrace(t, fig8, recordRun(t, fig8), 16), false},
	}
	t.Cleanup(func() { sweep.SetDefaultWorkers(0) })
	for _, workers := range []int{1, 2, 3, len(frames) + 3} {
		sweep.SetDefaultWorkers(workers)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				var want bytes.Buffer
				var wantErr error
				if src, err := trace.NewBinaryReader(bytes.NewReader(tc.data)); err != nil {
					wantErr = err
				} else {
					wantErr = Verify(src.Meta(), src, &want)
				}
				var got bytes.Buffer
				gotErr := VerifyFile(bytes.NewReader(tc.data), int64(len(tc.data)), &got)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("error %v, want Verify's %v", gotErr, wantErr)
				}
				if got.String() != want.String() {
					t.Errorf("report differs from Verify's:\n--- Verify ---\n%s--- VerifyFile ---\n%s", want.String(), got.String())
				}
				if tc.sharded && workers > 1 {
					done, _ := verifyShards(openTrace(t, tc.data), new(bytes.Buffer))
					if !done {
						t.Error("the shard path fell back to streaming")
					}
				}
			})
		}
	}
}
