package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// FlowName is the analyzer name under which detflow's interprocedural
// call-site diagnostics report and are suppressed. detflow is not a
// per-unit Analyzer — it needs every unit at once — but it shares the
// diagnostic and suppression protocol with the leaf analyzers.
const FlowName = "detflow"

// Flow is the whole-module interprocedural nondeterminism taint
// analysis. It builds a call graph over every loaded unit (static
// edges resolved through go/types; interface-method and func-value
// calls over-approximated by name+arity against deterministic-set
// candidates), seeds each function with its direct nondeterminism
// source instances — the same sources the leaf analyzers recognize,
// but detected in *every* module package, not just deterministic ones
// — and propagates instance sets to a fixpoint. The result answers,
// for any function, "which concrete wall-clock reads / global rand
// draws / unproven map ranges / goroutine spawns / multi-case selects
// / unstable sorts / ambient host reads / pointer-format leaks can
// execute on my behalf, and through which call chain?".
//
// The taint lattice is the powerset of source instances, ordered by
// inclusion; each instance carries the leaf analyzer name as its kind
// and is either live or vetted (suppressed). A //detlint:ignore on a
// source line vets that instance at the root, so it propagates as
// suppressed everywhere. A "//detlint:ignore detflow <reason>" on a
// call-site line vets the *edge*: live taint crossing it degrades to
// synthetic suppressed instances (keyed by call position and kind), so
// downstream summaries still record that vetted nondeterminism is
// reachable — the certified-API report shows "suppressed", not
// "clean" — without producing diagnostics.
type Flow struct {
	g     *flowGraph
	taint map[FuncKey]map[int]bool // function -> reaching instance ids
	synth map[synthKey]*srcInst
	dists map[int]map[FuncKey]int // instance -> live-reach distance per function
}

type synthKey struct {
	pos  token.Pos
	kind string
}

// NewFlow builds the call graph over units and runs the taint fixpoint.
// sups must hold the suppressions collected from every unit; root
// anchors relative paths in rendered chains and reports.
func NewFlow(fset *token.FileSet, units []*Unit, root string, sups []Suppression) *Flow {
	f := &Flow{
		g:     buildFlowGraph(fset, units, root, sups),
		taint: make(map[FuncKey]map[int]bool),
		synth: make(map[synthKey]*srcInst),
		dists: make(map[int]map[FuncKey]int),
	}
	f.fixpoint()
	return f
}

// fixpoint propagates source-instance sets from callees to callers
// until nothing changes. The worklist is seeded and drained in the
// graph's deterministic node order, so synthetic-instance creation
// order (and thus ids) is reproducible — not that ids are ever
// rendered, but determinism all the way down is cheaper than an
// argument about where it stops mattering.
func (f *Flow) fixpoint() {
	for _, fn := range f.g.order {
		set := make(map[int]bool, len(fn.sources))
		for _, id := range fn.sources {
			set[id] = true
		}
		f.taint[fn.key] = set
	}
	queue := append([]*flowFunc(nil), f.g.order...)
	queued := make(map[FuncKey]bool, len(queue))
	for _, fn := range queue {
		queued[fn.key] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		queued[fn.key] = false
		for _, ref := range fn.callers {
			if f.propagate(ref, fn) && !queued[ref.fn.key] {
				queue = append(queue, ref.fn)
				queued[ref.fn.key] = true
			}
		}
	}
}

// propagate flows callee's instance set into ref's caller across one
// edge, reporting whether the caller's set grew. Across a vetted edge,
// live instances degrade to synthetic suppressed ones; already-vetted
// instances flow through unchanged.
func (f *Flow) propagate(ref callerRef, callee *flowFunc) bool {
	src := f.taint[callee.key]
	dst := f.taint[ref.fn.key]
	// Deterministic iteration: synthetic-instance creation must not
	// depend on map order.
	ids := make([]int, 0, len(src))
	for id := range src {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	changed := false
	for _, id := range ids {
		inst := f.g.insts[id]
		if ref.call.sup != nil && inst.sup == nil {
			inst = f.synthInst(ref.call)
		}
		if !dst[inst.id] {
			dst[inst.id] = true
			changed = true
		}
	}
	return changed
}

// synthInst returns the synthetic suppressed instance standing for all
// live taint of one kind vetted at a call edge, creating it on first
// use. One instance per (call position, kind) keeps report entries
// stable however many distinct sources the vetted callee reaches.
func (f *Flow) synthInst(call *flowCall) *srcInst {
	k := synthKey{call.pos, FlowName}
	if inst, ok := f.synth[k]; ok {
		return inst
	}
	inst := &srcInst{
		id:   len(f.g.insts),
		kind: FlowName,
		what: "nondeterministic callee vetted at call site",
		pos:  f.g.fset.Position(call.pos),
		sup:  call.sup,
	}
	f.g.insts = append(f.g.insts, inst)
	f.synth[k] = inst
	return inst
}

// liveIDs returns the sorted live (unsuppressed) instance ids reaching fn.
func (f *Flow) liveIDs(key FuncKey) []int {
	var ids []int
	for id := range f.taint[key] {
		if f.g.insts[id].sup == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Diagnostics reports the taint frontier: every call site in a
// deterministic package whose callee is a module-local function
// *outside* the deterministic set with live taint. Reporting only at
// the boundary keeps one root cause from cascading into a diagnostic
// at every transitive caller — inside the deterministic set, a live
// source is the leaf analyzers' finding at its own site, and a
// deterministic callee's boundary calls are its own frontier
// diagnostics; what detflow adds is the laundering case, where the
// nondeterminism hides behind an exempt-package (or otherwise
// unchecked) helper and only the call chain explains the finding.
//
// Diagnostics also reports, when the load has a main function, every
// function no root of the reachability check reaches (see markReached).
func (f *Flow) Diagnostics() []Diagnostic {
	var diags []Diagnostic
	for _, fn := range f.g.order {
		if f.g.hasMain && !fn.reached {
			diags = append(diags, Diagnostic{Analyzer: UnreachedName, Pos: fn.pos, Message: fn.display +
				" is reached from no main function or package initializer; delete it, move it into the tests that use it, or keep it with \"//detlint:ignore unreached <reason>\""})
		}
		if !fn.det {
			continue
		}
		for i := range fn.calls {
			c := &fn.calls[i]
			if c.sup != nil || c.callee == nil || c.callee.det {
				continue
			}
			live := f.liveIDs(c.callee.key)
			if len(live) == 0 {
				continue
			}
			for _, id := range f.bestPerKind(c.callee, live) {
				inst := f.g.insts[id]
				chain := fn.display + " -> " + f.chainFrom(c.callee, inst)
				diags = append(diags, Diagnostic{
					Analyzer: FlowName,
					Pos:      f.g.fset.Position(c.pos),
					Message: fmt.Sprintf(
						"call to %s reaches %s nondeterminism: %s; make the callee deterministic, inject the dependency, or vet this call with \"//detlint:ignore detflow <reason>\"",
						c.callee.display, inst.kind, chain),
				})
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// bestPerKind selects, for each taint kind reaching start, the witness
// instance with the shortest live call chain (position as tie-break),
// returning the ids sorted by kind.
func (f *Flow) bestPerKind(start *flowFunc, live []int) []int {
	best := map[string]int{}
	for _, id := range live {
		inst := f.g.insts[id]
		d, ok := f.distTo(start, inst)
		if !ok {
			continue // unreachable by live edges (set came via a cycle of vetting) — defensive
		}
		cur, seen := best[inst.kind]
		if !seen {
			best[inst.kind] = id
			continue
		}
		curInst := f.g.insts[cur]
		cd, _ := f.distTo(start, curInst)
		if d < cd || (d == cd && lessPos(inst.pos, curInst.pos)) {
			best[inst.kind] = id
		}
	}
	kinds := make([]string, 0, len(best))
	for k := range best {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	ids := make([]int, len(kinds))
	for i, k := range kinds {
		ids[i] = best[k]
	}
	return ids
}

func lessPos(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Line < b.Line
}

// distMap lazily computes, for one instance, the minimum number of
// live (unvetted) call edges from each function to the instance's
// owner — a reverse BFS from the owner over caller edges.
func (f *Flow) distMap(inst *srcInst) map[FuncKey]int {
	if d, ok := f.dists[inst.id]; ok {
		return d
	}
	d := map[FuncKey]int{}
	if inst.owner != nil {
		d[inst.owner.key] = 0
		queue := []*flowFunc{inst.owner}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, ref := range cur.callers {
				if ref.call.sup != nil {
					continue
				}
				if _, seen := d[ref.fn.key]; !seen {
					d[ref.fn.key] = d[cur.key] + 1
					queue = append(queue, ref.fn)
				}
			}
		}
	}
	f.dists[inst.id] = d
	return d
}

func (f *Flow) distTo(fn *flowFunc, inst *srcInst) (int, bool) {
	d, ok := f.distMap(inst)[fn.key]
	return d, ok
}

// chainFrom renders the shortest live call chain from start to inst's
// concrete source site: "cliutil.Chain -> cliutil.LeakyNow -> time.Now
// at internal/cliutil/clock.go:9". Ties pick the textually earliest
// call site, so the rendering is deterministic.
func (f *Flow) chainFrom(start *flowFunc, inst *srcInst) string {
	parts := []string{start.display}
	cur := start
	d, ok := f.distTo(cur, inst)
	for ok && d > 0 {
		var next *flowFunc
		var nextPos token.Pos
		for i := range cur.calls {
			c := &cur.calls[i]
			if c.sup != nil || c.callee == nil {
				continue
			}
			cd, cok := f.distTo(c.callee, inst)
			if !cok || cd != d-1 {
				continue
			}
			if next == nil || c.pos < nextPos {
				next, nextPos = c.callee, c.pos
			}
		}
		if next == nil {
			break // inconsistent distances — defensive
		}
		parts = append(parts, next.display)
		cur, d = next, d-1
	}
	return strings.Join(parts, " -> ") + " -> " + inst.what + " at " + f.g.rel(inst.pos)
}
