// Command tracediff localizes the first divergence between two recorded
// traces. See doc.go for usage and exit codes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command with its process boundary made explicit, like
// cmd/hdsim's and cmd/hunt's: arguments in, verdict on stdout,
// diagnostics on stderr, exit code back — 0 identical, 1 any divergence,
// 2 a usage or I/O error (`tracediff: <error>` on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracediff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tracediff <trace-a> <trace-b>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	identical, err := diff(fs.Arg(0), fs.Arg(1), stdout)
	if err != nil {
		fmt.Fprintf(stderr, "tracediff: %v\n", err)
		return 2
	}
	if identical {
		return 0
	}
	return 1
}

// diff compares the two trace files and reports whether fingerprints and
// events both agree.
func diff(pathA, pathB string, stdout io.Writer) (bool, error) {
	a, err := open(pathA)
	if err != nil {
		return false, err
	}
	defer a.close()
	b, err := open(pathB)
	if err != nil {
		return false, err
	}
	defer b.close()

	metaOK, err := compareMeta(a, b, stdout)
	if err != nil {
		return false, err
	}
	identical, err := compareEvents(a, b, stdout)
	return identical && metaOK, err
}

// side is one trace under comparison: indexed random access when the
// stream is a finalized v2 file, streaming fallback otherwise (a run that
// died before writing its trailer).
type side struct {
	path string
	f    *os.File
	tf   *trace.TraceFile // nil when only streaming works
}

func open(path string) (*side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &side{path: path, f: f}
	if tf, err := trace.OpenTraceFile(f, st.Size()); err == nil {
		s.tf = tf
	}
	return s, nil
}

func (s *side) close() { s.f.Close() }

// stream returns a reader over the side's full event body from the start.
func (s *side) stream() (*trace.BinaryReader, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return trace.NewBinaryReader(s.f)
}

func (s *side) meta() (*trace.Meta, error) {
	if s.tf != nil {
		return s.tf.Meta(), nil
	}
	r, err := s.stream()
	if err != nil {
		return nil, err
	}
	return r.Meta(), nil
}

// compareMeta prints the scenario-fingerprint verdict and reports whether
// the fingerprints agree. Two traces of different scenarios can still be
// event-diffed, but they are not runs of the same experiment.
func compareMeta(a, b *side, stdout io.Writer) (bool, error) {
	ma, err := a.meta()
	if err != nil {
		return false, err
	}
	mb, err := b.meta()
	if err != nil {
		return false, err
	}
	switch {
	case ma == nil && mb == nil:
		fmt.Fprintln(stdout, "meta: none (fingerprint-less traces)")
		return true, nil
	case ma == nil || mb == nil:
		fmt.Fprintln(stdout, "meta: DIFFER (only one trace carries a scenario fingerprint)")
		fmt.Fprintf(stdout, "  a: %s\n", metaLine(ma))
		fmt.Fprintf(stdout, "  b: %s\n", metaLine(mb))
		return false, nil
	case *ma == *mb:
		fmt.Fprintf(stdout, "meta: identical — %s\n", metaLine(ma))
		return true, nil
	default:
		fmt.Fprintln(stdout, "meta: DIFFER (not runs of the same scenario)")
		fmt.Fprintf(stdout, "  a: %s\n", metaLine(ma))
		fmt.Fprintf(stdout, "  b: %s\n", metaLine(mb))
		return false, nil
	}
}

func metaLine(m *trace.Meta) string {
	if m == nil {
		return "(none)"
	}
	j, err := json.Marshal(m)
	if err != nil {
		return fmt.Sprintf("%+v", *m)
	}
	return string(j)
}

// compareEvents finds and reports the first divergent event. With two
// finalized v2 traces whose frames align, the per-frame cumulative
// digests locate the divergent frame by binary search and only that frame
// is decoded from each side; otherwise both bodies stream linearly.
func compareEvents(a, b *side, stdout io.Writer) (bool, error) {
	if a.tf != nil && b.tf != nil {
		ia, ib := a.tf.Index(), b.tf.Index()
		if ia.TotalDigest == ib.TotalDigest && ia.TotalEvents == ib.TotalEvents {
			fmt.Fprintf(stdout, "events: identical — %d events, digest %016x\n", ia.TotalEvents, ia.TotalDigest)
			return true, nil
		}
		if k, ok := divergentFrame(ia, ib); ok {
			return false, diffFrames(a, b, k, stdout)
		}
		// Frames misaligned (different spill strides): digests at frame
		// boundaries are not comparable, scan instead.
	}
	return diffStreams(a, b, stdout)
}

// divergentFrame returns the index of the first frame that can contain
// the divergence, given aligned frame boundaries: the first frame whose
// events-before digest disagrees, minus one. ok is false when the frame
// boundaries do not line up (the binary search would be meaningless).
func divergentFrame(ia, ib *trace.Index) (int, bool) {
	m := len(ia.Frames)
	if len(ib.Frames) < m {
		m = len(ib.Frames)
	}
	for i := 0; i < m; i++ {
		if ia.Frames[i].Ordinal != ib.Frames[i].Ordinal {
			return 0, false
		}
	}
	// DigestBefore[0] is the FNV basis on both sides, so the search
	// never selects -1.
	k := sort.Search(m, func(i int) bool {
		return ia.Frames[i].DigestBefore != ib.Frames[i].DigestBefore
	})
	if k == 0 {
		return 0, false
	}
	// Bodies agree before frame k-1 and disagree somewhere at or after
	// its start: the first divergent event is in frame k-1 or, if that
	// frame ties, a later one (only when k == m; diffFrames walks on).
	return k - 1, true
}

// diffFrames reports the first divergent event at or after frame k,
// decoding one aligned frame pair at a time.
func diffFrames(a, b *side, k int, stdout io.Writer) error {
	na, nb := len(a.tf.Index().Frames), len(b.tf.Index().Frames)
	for ; k < na && k < nb; k++ {
		fa, err := frameEvents(a, k)
		if err != nil {
			return err
		}
		fb, err := frameEvents(b, k)
		if err != nil {
			return err
		}
		ord := a.tf.Index().Frames[k].Ordinal
		if done, err := reportFirstDiff(fa, fb, ord, k, stdout); done {
			return err
		}
	}
	reportLength(a.tf.Index().TotalEvents, b.tf.Index().TotalEvents, stdout)
	return nil
}

func frameEvents(s *side, k int) ([]trace.Event, error) {
	r, err := s.tf.OpenFrame(k)
	if err != nil {
		return nil, err
	}
	var out []trace.Event
	err = trace.Drain(r, func(e trace.Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// reportFirstDiff compares two aligned event runs starting at ordinal
// ord; on a mismatch it prints the divergence and reports done. A length
// mismatch within the pair is also final (frames are aligned, so the
// shorter side's trace ends inside this frame).
func reportFirstDiff(fa, fb []trace.Event, ord uint64, frame int, stdout io.Writer) (bool, error) {
	n := len(fa)
	if len(fb) < n {
		n = len(fb)
	}
	for i := 0; i < n; i++ {
		if fa[i] != fb[i] {
			fmt.Fprintf(stdout, "events: first divergence at event %d (frame %d)\n", ord+uint64(i), frame)
			fmt.Fprintf(stdout, "  a: %s\n", fa[i])
			fmt.Fprintf(stdout, "  b: %s\n", fb[i])
			return true, nil
		}
	}
	if len(fa) != len(fb) {
		reportLength(ord+uint64(len(fa)), ord+uint64(len(fb)), stdout)
		return true, nil
	}
	return false, nil
}

func reportLength(na, nb uint64, stdout io.Writer) {
	if na == nb {
		// Aligned, equal-length, pairwise-equal events — yet the digests
		// disagreed. That means a body byte difference the decoder
		// normalizes away (it cannot happen with this writer).
		fmt.Fprintf(stdout, "events: %d in both, no event-level divergence\n", na)
		return
	}
	fmt.Fprintf(stdout, "events: lengths diverge — %d vs %d (traces agree up to the shorter)\n", na, nb)
}

// diffStreams is the linear fallback: decode both bodies in lockstep.
func diffStreams(a, b *side, stdout io.Writer) (bool, error) {
	ra, err := a.stream()
	if err != nil {
		return false, err
	}
	rb, err := b.stream()
	if err != nil {
		return false, err
	}
	var ord uint64
	for {
		ea, errA := ra.Next()
		eb, errB := rb.Next()
		switch {
		case errA == io.EOF && errB == io.EOF:
			fmt.Fprintf(stdout, "events: identical — %d events\n", ord)
			return true, nil
		case errA == io.EOF || errB == io.EOF:
			var na, nb uint64 = ord, ord
			if errA == io.EOF {
				nb++ // b still has at least this event
			} else {
				na++
			}
			reportLength(na, nb, stdout)
			return false, nil
		case errA != nil:
			return false, fmt.Errorf("%s: %w", a.path, errA)
		case errB != nil:
			return false, fmt.Errorf("%s: %w", b.path, errB)
		case ea != eb:
			fmt.Fprintf(stdout, "events: first divergence at event %d\n", ord)
			fmt.Fprintf(stdout, "  a: %s\n", ea)
			fmt.Fprintf(stdout, "  b: %s\n", eb)
			return false, nil
		}
		ord++
	}
}
