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

// side is one trace under comparison. tf is the footer index of a
// finalized v2 file, nil for a run that died before writing its trailer;
// such a side is streamed by r, the reader that read its meta.
type side struct {
	path string
	f    *os.File
	tf   *trace.TraceFile
	r    *trace.BinaryReader
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

// meta returns the side's scenario fingerprint. An unindexed side reads
// its header here, and its events then go on from the same reader.
func (s *side) meta() (*trace.Meta, error) {
	if s.tf != nil {
		return s.tf.Meta(), nil
	}
	r, err := trace.NewBinaryReader(s.f)
	if err != nil {
		return nil, err
	}
	s.r = r
	return r.Meta(), nil
}

// events returns the side's events from frame k on: one reader over the
// rest of an indexed body, or the unindexed side's own reader (k is 0
// then, since only two indexes can pick a frame).
func (s *side) events(k int) (*trace.BinaryReader, error) {
	if s.tf == nil {
		return s.r, nil
	}
	return s.tf.OpenFrom(k)
}

// countRest returns the side's event count once the other trace has ended
// and r has delivered n of its events: the index's total when the side
// has one, else n plus what r still holds. A decode error on the way is
// this trace's, as in the lockstep loop.
func (s *side) countRest(r *trace.BinaryReader, n uint64) (uint64, error) {
	if s.tf != nil {
		return s.tf.Index().TotalEvents, nil
	}
	err := trace.DrainBatches(r, func(batch []trace.Event) error {
		n += uint64(len(batch))
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", s.path, err)
	}
	return n, nil
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

// compareEvents finds and reports the first divergent event in one
// lockstep loop over both bodies. Two finalized v2 traces with equal index
// totals are identical without decoding a body. When their frames align,
// the per-frame cumulative digests pick the frame the divergence is in by
// binary search, and the loop starts there instead of at the first event.
func compareEvents(a, b *side, stdout io.Writer) (bool, error) {
	k := -1 // the frame the index picked, if it picked one
	if a.tf != nil && b.tf != nil {
		ia, ib := a.tf.Index(), b.tf.Index()
		if ia.TotalDigest == ib.TotalDigest && ia.TotalEvents == ib.TotalEvents {
			fmt.Fprintf(stdout, "events: identical — %d events, digest %016x\n", ia.TotalEvents, ia.TotalDigest)
			return true, nil
		}
		k = divergentFrame(ia, ib)
	}
	ra, err := a.events(max(k, 0))
	if err != nil {
		return false, fmt.Errorf("%s: %w", a.path, err)
	}
	rb, err := b.events(max(k, 0))
	if err != nil {
		return false, fmt.Errorf("%s: %w", b.path, err)
	}
	var ord uint64
	if k >= 0 {
		ord = a.tf.Index().Frames[k].Ordinal
	}
	for ; ; ord++ {
		ea, errA := ra.Next()
		eb, errB := rb.Next()
		switch {
		case errA != nil && errA != io.EOF:
			return false, fmt.Errorf("%s: %w", a.path, errA)
		case errB != nil && errB != io.EOF:
			return false, fmt.Errorf("%s: %w", b.path, errB)
		case errA == io.EOF && errB == io.EOF:
			if k >= 0 {
				reportLength(ord, ord, stdout) // the digests disagreed
				return false, nil
			}
			fmt.Fprintf(stdout, "events: identical — %d events\n", ord)
			return true, nil
		case errA == io.EOF:
			nb, err := b.countRest(rb, ord+1)
			if err != nil {
				return false, err
			}
			reportLength(ord, nb, stdout)
			return false, nil
		case errB == io.EOF:
			na, err := a.countRest(ra, ord+1)
			if err != nil {
				return false, err
			}
			reportLength(na, ord, stdout)
			return false, nil
		case ea != eb:
			where := ""
			if k >= 0 {
				frames := a.tf.Index().Frames
				j := sort.Search(len(frames), func(i int) bool { return frames[i].Ordinal > ord }) - 1
				where = fmt.Sprintf(" (frame %d)", j)
			}
			fmt.Fprintf(stdout, "events: first divergence at event %d%s\n", ord, where)
			fmt.Fprintf(stdout, "  a: %s\n", ea)
			fmt.Fprintf(stdout, "  b: %s\n", eb)
			return false, nil
		}
	}
}

// divergentFrame returns the index of the first frame that can contain
// the divergence, given aligned frame boundaries: the first frame whose
// events-before digest disagrees, minus one. It returns -1 when the frame
// boundaries do not line up (the binary search would be meaningless).
func divergentFrame(ia, ib *trace.Index) int {
	m := len(ia.Frames)
	if len(ib.Frames) < m {
		m = len(ib.Frames)
	}
	for i := 0; i < m; i++ {
		if ia.Frames[i].Ordinal != ib.Frames[i].Ordinal {
			return -1
		}
	}
	// DigestBefore[0] is the FNV basis on both sides, so k is 0 only
	// when a side has no frames.
	k := sort.Search(m, func(i int) bool {
		return ia.Frames[i].DigestBefore != ib.Frames[i].DigestBefore
	})
	if k == 0 {
		return -1
	}
	// Bodies agree before frame k-1 and disagree somewhere at or after
	// its start: the first divergent event is in frame k-1 or, if that
	// frame ties, a later one (only when k == m; the loop reads on).
	return k - 1
}

func reportLength(na, nb uint64, stdout io.Writer) {
	if na == nb {
		// Aligned, equal-length, pairwise-equal events — yet the digests
		// disagreed. That means a body byte difference the decoder
		// normalizes away, which this writer never makes, or a recorded
		// digest damaged after writing.
		fmt.Fprintf(stdout, "events: %d in both, no event-level divergence\n", na)
		return
	}
	fmt.Fprintf(stdout, "events: lengths diverge — %d vs %d (traces agree up to the shorter)\n", na, nb)
}
