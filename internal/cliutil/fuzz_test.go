package cliutil

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// The flag parsers meet arbitrary command lines and trace metadata. On any
// input each must return, not panic; an accepted spec must hold only
// finite parameters inside the ranges its doc comment states; and an error
// must quote (%q) a piece of the input, so the user can find what was
// rejected. testdata/fuzz holds each target's seed corpus, including the
// non-finite floats the range checks used to let through.

// requireNamesInput fails unless err quotes some substring of input.
func requireNamesInput(t *testing.T, input string, err error) {
	t.Helper()
	msg := err.Error()
	if i := strings.IndexByte(msg, '"'); i >= 0 {
		if q, qerr := strconv.QuotedPrefix(msg[i:]); qerr == nil {
			if s, _ := strconv.Unquote(q); strings.Contains(input, s) {
				return
			}
		}
	}
	t.Fatalf("error %q for input %q quotes no part of the input", msg, input)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func FuzzParseNet(f *testing.F) {
	for _, seed := range []string{"async:8", "psync:50:3", "pareto:1.1:30", "lognormal:0.7", "lossy:0.5:12", "alt:40:200", "asym:20", "timely:4"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseNet(spec)
		if err != nil {
			if m != nil {
				t.Fatalf("ParseNet(%q) = %v with error %v", spec, m, err)
			}
			requireNamesInput(t, spec, err)
			return
		}
		ok := false
		switch m := m.(type) {
		case sim.Async:
			ok = m.MaxDelay >= 1
		case sim.PartialSync:
			ok = m.GST >= 0 && m.Delta >= 1
		case sim.Timely:
			ok = m.Delta >= 1
		case sim.Pareto:
			ok = finite(m.Alpha) && m.Alpha > 0 && m.Scale == 2 && m.Cap >= 2
		case sim.LogNormal:
			ok = finite(m.Sigma) && m.Sigma > 0 && m.Median == 3 && m.Cap >= 1
		case sim.Alternating:
			ok = m.Period >= 1 && m.CalmAfter >= 0
		case sim.AsymmetricLinks:
			ok = m.MaxSkew >= 1
		case sim.Lossy:
			base, isAsync := m.Base.(sim.Async)
			ok = finite(m.P) && m.P >= 0 && m.P < sim.MaxLossP && isAsync && base.MaxDelay >= 1
		}
		if !ok {
			t.Fatalf("ParseNet(%q) accepted %#v, outside the documented ranges", spec, m)
		}
	})
}

func FuzzParseChurn(f *testing.F) {
	for _, seed := range []string{"", "0.2:2:40:60", "0.5", "1:1:12:20:0", "0.34:1:60"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChurn(spec)
		if err != nil {
			if c != (sim.ChurnSpec{}) {
				t.Fatalf("ParseChurn(%q) = %+v with error %v", spec, c, err)
			}
			requireNamesInput(t, spec, err)
			return
		}
		if strings.TrimSpace(spec) == "" {
			if c != (sim.ChurnSpec{}) {
				t.Fatalf("ParseChurn(%q) = %+v, want the zero spec", spec, c)
			}
			return
		}
		// Omitted fields stay zero (the runner's default); given ones are >= 1.
		given := strings.Count(strings.TrimSpace(spec), ":")
		atLeast := func(field int, v int64) bool { return v >= 1 || (field > given && v == 0) }
		if !finite(c.Fraction) || !(c.Fraction > 0 && c.Fraction <= 1) ||
			!atLeast(1, int64(c.Cycles)) || !atLeast(2, c.Down) || !atLeast(3, c.Up) || c.Stagger < 0 {
			t.Fatalf("ParseChurn(%q) accepted %+v, outside the documented ranges", spec, c)
		}
	})
}

func FuzzParseCrashes(f *testing.F) {
	for _, seed := range []string{"", "1:30", "1:30,4:120", " 2:5 , 3:9 ", "1:30,1:40"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		crashes, err := ParseCrashes(spec)
		if err != nil {
			if crashes != nil {
				t.Fatalf("ParseCrashes(%q) = %v with error %v", spec, crashes, err)
			}
			requireNamesInput(t, spec, err)
			return
		}
		for pid, at := range crashes {
			if pid < 0 || at < 0 {
				t.Fatalf("ParseCrashes(%q) accepted %d:%d, want pid >= 0 and time >= 0", spec, pid, at)
			}
		}
		if entries := strings.Count(spec, ",") + 1; strings.TrimSpace(spec) != "" && len(crashes) != entries {
			t.Fatalf("ParseCrashes(%q) = %v: %d entries for %d pids", spec, crashes, entries, len(crashes))
		}
	})
}

func FuzzParsePartitions(f *testing.F) {
	for _, seed := range []string{"", "20-60@3,100-140@2", " 0-1@1 ", "60-20@3", "20-60@3,,"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ws, err := ParsePartitions(spec)
		if err != nil {
			if ws != nil {
				t.Fatalf("ParsePartitions(%q) = %v with error %v", spec, ws, err)
			}
			requireNamesInput(t, spec, err)
			return
		}
		for _, w := range ws {
			if w.From < 0 || w.To <= w.From || w.Cut < 1 {
				t.Fatalf("ParsePartitions(%q) accepted %+v, want from >= 0, to > from, cut >= 1", spec, w)
			}
		}
	})
}
