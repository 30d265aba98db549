package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Report renders the certified-deterministic API report: every exported
// function of every deterministic package, and every exported method an
// exported type promotes from an embedded field (under the promoting type,
// with its declaration's status), with its transitive taint status. Unlike Diagnostics — which stops at the taint frontier to
// avoid cascades — the report is transitive: an exported function is
// TAINTED whenever any live source can execute on its behalf, however
// many frames away, because that is the question a caller of the API
// actually asks.
//
// The output is byte-stable across runs and machines: packages sort by
// import path, functions by display name, suppressed entries by kind
// then position; paths render relative to the module root; nothing
// time- or environment-dependent is emitted. CI regenerates the report
// and diffs it against the checked-in detflow_report.txt, so any change
// to the certified surface — a new export, a new suppression, a
// regression to TAINTED — shows up in review as a baseline diff.
func (f *Flow) Report() string {
	var b strings.Builder
	b.WriteString("# detflow certified-deterministic API report.\n")
	b.WriteString("# Regenerate: go run ./cmd/detlint -flow -report ./... > detflow_report.txt\n")
	b.WriteString("#\n")
	b.WriteString("# Every exported function of the deterministic package set, with its\n")
	b.WriteString("# transitive nondeterminism-taint status:\n")
	b.WriteString("#   clean      — no nondeterminism source can execute on its behalf\n")
	b.WriteString("#   suppressed — reaches only sources vetted by //detlint:ignore (listed)\n")
	b.WriteString("#   TAINTED    — reaches a live source via the shown call chain; fix it\n")

	type entry struct {
		name string
		fn   *flowFunc
	}
	byPkg := map[string][]entry{}
	for _, fn := range f.g.order {
		if fn.det && fn.exported {
			byPkg[fn.pkgPath] = append(byPkg[fn.pkgPath], entry{localName(fn), fn})
		}
	}
	for _, p := range f.g.promoted {
		byPkg[p.pkgPath] = append(byPkg[p.pkgPath], entry{p.name, p.fn})
	}
	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	for _, pkg := range pkgs {
		entries := byPkg[pkg]
		sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
		fmt.Fprintf(&b, "\n== %s ==\n", pkg)
		for _, e := range entries {
			fmt.Fprintf(&b, "%s: %s\n", e.name, f.status(e.fn))
		}
	}
	return b.String()
}

// localName strips the package qualifier from a display name:
// "sim.Use" -> "Use", "trace.(Recorder).Record" -> "(Recorder).Record".
func localName(fn *flowFunc) string {
	if i := strings.Index(fn.display, "."); i >= 0 {
		return fn.display[i+1:]
	}
	return fn.display
}

// status renders one function's taint status line.
func (f *Flow) status(fn *flowFunc) string {
	live := f.liveIDs(fn.key)
	if len(live) > 0 {
		id := f.worstWitness(fn, live)
		inst := f.g.insts[id]
		kinds := map[string]bool{}
		for _, l := range live {
			kinds[f.g.insts[l].kind] = true
		}
		return fmt.Sprintf("TAINTED [%s] via %s", joinSorted(kinds), f.chainFrom(fn, inst))
	}

	var vetted []*srcInst
	for id := range f.taint[fn.key] {
		vetted = append(vetted, f.g.insts[id])
	}
	if len(vetted) == 0 {
		return "clean"
	}
	sort.Slice(vetted, func(i, j int) bool {
		a, b := vetted[i], vetted[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		return a.pos.Line < b.pos.Line
	})
	parts := make([]string, 0, len(vetted))
	seen := map[string]bool{}
	for _, inst := range vetted {
		entry := fmt.Sprintf("[%s %s %q]", inst.kind, f.g.rel(inst.pos), inst.sup.Reason)
		if !seen[entry] {
			seen[entry] = true
			parts = append(parts, entry)
		}
	}
	return "suppressed " + strings.Join(parts, " ")
}

// worstWitness picks the live instance with the shortest chain from fn
// (position tie-break) to show in a TAINTED line.
func (f *Flow) worstWitness(fn *flowFunc, live []int) int {
	best := live[0]
	bd, bok := f.distTo(fn, f.g.insts[best])
	for _, id := range live[1:] {
		inst := f.g.insts[id]
		d, ok := f.distTo(fn, inst)
		if !ok {
			continue
		}
		if !bok || d < bd || (d == bd && lessPos(inst.pos, f.g.insts[best].pos)) {
			best, bd, bok = id, d, true
		}
	}
	return best
}

func joinSorted(set map[string]bool) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}
