package fd

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// CheckHSigma verifies all four HΣ properties on a recorded execution.
//
//   - Validity: no sampled h_quora value contains two pairs with one label.
//   - Monotonicity: per process, h_labels never shrinks, and once (x, m) is
//     in h_quora, every later sample contains some (x, m') with m' ⊆ m.
//   - Liveness: each correct process's final h_quora has a pair (x, m) with
//     m ⊆ I(S(x) ∩ Correct), where S(x) is the set of processes that ever
//     held label x in h_labels.
//   - Safety: for any two sampled pairs (x₁, m₁), (x₂, m₂) — across all
//     processes and times — every realization Q₁ ⊆ S(x₁) with I(Q₁) = m₁
//     intersects every realization Q₂ ⊆ S(x₂) with I(Q₂) = m₂.
//
// Safety is decided in polynomial time: disjoint realizations exist iff,
// independently for every identifier i, the demands m₁(i) and m₂(i) can be
// packed into S(x₁), S(x₂) without sharing a process — a per-identifier
// counting condition (see disjointRealizable).
func CheckHSigma(g *GroundTruth, quora *Probe[[]QuorumPair], labels *Probe[[]Label]) (Result, error) {
	n := quora.N()

	// Validity + quora monotonicity, per process.
	for p := 0; p < n; p++ {
		hist := quora.History(sim.PID(p))
		for _, s := range hist {
			seen := make(map[Label]bool, len(s.Value))
			for _, pair := range s.Value {
				if seen[pair.Label] {
					return Result{}, fmt.Errorf("HΣ validity: process %d at t=%d holds two pairs with label %q", p, s.Time, pair.Label)
				}
				seen[pair.Label] = true
			}
		}
		for i := 1; i < len(hist); i++ {
			prev, cur := hist[i-1].Value, hist[i].Value
			for _, old := range prev {
				ok := false
				for _, nw := range cur {
					if nw.Label == old.Label && nw.M.SubsetOf(old.M) {
						ok = true
						break
					}
				}
				if !ok {
					return Result{}, fmt.Errorf("HΣ monotonicity: process %d dropped/grew pair (%q, %v) at t=%d",
						p, old.Label, old.M, hist[i].Time)
				}
			}
		}
	}

	// Labels monotonicity.
	for p := 0; p < n; p++ {
		hist := labels.History(sim.PID(p))
		for i := 1; i < len(hist); i++ {
			prevSet := labelSet(hist[i-1].Value)
			curSet := labelSet(hist[i].Value)
			// Collect every lost label and report the sorted set: the
			// error string reaches campaign row bytes, so which witness a
			// map range happens to visit first must not leak into it.
			var lost []string
			for l := range prevSet {
				if !curSet[l] {
					lost = append(lost, string(l))
				}
			}
			if len(lost) > 0 {
				sort.Strings(lost)
				return Result{}, fmt.Errorf("HΣ monotonicity: process %d lost label(s) %q at t=%d", p, lost, hist[i].Time)
			}
		}
	}

	// S(x): every process that EVER held x in h_labels.
	member := make(map[Label]map[sim.PID]bool)
	for p := 0; p < n; p++ {
		for _, s := range labels.History(sim.PID(p)) {
			for _, l := range s.Value {
				if member[l] == nil {
					member[l] = make(map[sim.PID]bool)
				}
				member[l][sim.PID(p)] = true
			}
		}
	}
	sOf := func(x Label) []sim.PID {
		var out []sim.PID
		for p := 0; p < n; p++ {
			if member[x][sim.PID(p)] {
				out = append(out, sim.PID(p))
			}
		}
		return out
	}

	// Liveness.
	correctSet := make(map[sim.PID]bool)
	for _, p := range g.Correct() {
		correctSet[p] = true
	}
	for _, p := range g.Correct() {
		final, ok := quora.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("HΣ liveness: correct process %d produced no h_quora output", p)
		}
		live := false
		for _, pair := range final {
			quorum := multiset.New[ident.ID]()
			for _, q := range sOf(pair.Label) {
				if correctSet[q] {
					quorum.Add(g.IDs[q])
				}
			}
			if pair.M.SubsetOf(quorum) {
				live = true
				break
			}
		}
		if !live {
			return Result{}, fmt.Errorf("HΣ liveness: process %d has no final pair (x, m) with m ⊆ I(S(x) ∩ Correct); quora=%v", p, final)
		}
	}

	// Safety over all distinct sampled pairs.
	type obs struct {
		pair QuorumPair
		s    []sim.PID // S(label)
	}
	seenPair := make(map[string]bool)
	var pairs []obs
	for p := 0; p < n; p++ {
		for _, s := range quora.History(sim.PID(p)) {
			for _, pair := range s.Value {
				key := string(pair.Label) + "\x00" + pair.M.Key()
				if seenPair[key] {
					continue
				}
				seenPair[key] = true
				pairs = append(pairs, obs{pair: pair, s: sOf(pair.Label)})
			}
		}
	}
	for i := 0; i < len(pairs); i++ {
		for j := i; j < len(pairs); j++ {
			a, b := pairs[i], pairs[j]
			if !realizable(g.IDs, a.pair.M, a.s) || !realizable(g.IDs, b.pair.M, b.s) {
				continue // vacuous: some realization does not exist
			}
			if disjointRealizable(g.IDs, a.pair.M, a.s, b.pair.M, b.s) {
				return Result{}, fmt.Errorf("HΣ safety: pairs (%q, %v) and (%q, %v) admit disjoint realizations",
					a.pair.Label, a.pair.M, b.pair.Label, b.pair.M)
			}
		}
	}

	stab := stabilization(g, quora)
	if s := stabilization(g, labels); s > stab {
		stab = s
	}
	return Result{StabilizationTime: stab}, nil
}

// realizable reports whether some Q ⊆ s has I(Q) = m: for every identifier,
// s must contain at least the demanded number of processes with it.
func realizable(ids ident.Assignment, m *multiset.Multiset[ident.ID], s []sim.PID) bool {
	avail := multiset.New[ident.ID]()
	for _, p := range s {
		avail.Add(ids[p])
	}
	return m.SubsetOf(avail)
}

// disjointRealizable reports whether there exist DISJOINT Q₁ ⊆ s1 with
// I(Q₁) = m1 and Q₂ ⊆ s2 with I(Q₂) = m2. Identifiers are independent: for
// identifier i, with a = m1(i) demanded from the processes of s1 carrying
// i (|·| = A exclusive + C shared) and b = m2(i) from s2's (B exclusive +
// C shared), disjoint picks exist iff a ≤ A+C, b ≤ B+C and a+b ≤ A+B+C.
func disjointRealizable(ids ident.Assignment, m1 *multiset.Multiset[ident.ID], s1 []sim.PID, m2 *multiset.Multiset[ident.ID], s2 []sim.PID) bool {
	in1 := make(map[sim.PID]bool, len(s1))
	for _, p := range s1 {
		in1[p] = true
	}
	in2 := make(map[sim.PID]bool, len(s2))
	for _, p := range s2 {
		in2[p] = true
	}
	count := func(id ident.ID) (a, b, c int) {
		for _, p := range s1 {
			if ids[p] == id && !in2[p] {
				a++
			}
		}
		for _, p := range s2 {
			if ids[p] == id && !in1[p] {
				b++
			}
		}
		for _, p := range s1 {
			if ids[p] == id && in2[p] {
				c++
			}
		}
		return a, b, c
	}
	union := m1.Union(m2)
	for _, id := range union.Support() {
		d1, d2 := m1.Count(id), m2.Count(id)
		a, b, c := count(id)
		if d1 > a+c || d2 > b+c || d1+d2 > a+b+c {
			return false
		}
	}
	return true
}

func labelSet(ls []Label) map[Label]bool {
	out := make(map[Label]bool, len(ls))
	for _, l := range ls {
		out[l] = true
	}
	return out
}

// CheckASigma verifies the anonymous class AΣ analogously: S_A(x) is the
// set of processes that ever held a pair labelled x; liveness requires a
// final pair (x, y) with |S_A(x) ∩ Correct| ≥ y; safety requires that no
// two pairs admit disjoint sub-quora, i.e. NOT (y₁ ≤ |S₁| ∧ y₂ ≤ |S₂| ∧
// y₁+y₂ ≤ |S₁ ∪ S₂|) for any sampled (x₁,y₁), (x₂,y₂).
//
//detlint:ignore unreached test oracle: holds the AΣ oracle to its class
func CheckASigma(g *GroundTruth, pr *Probe[[]APair]) (Result, error) {
	n := pr.N()

	member := make(map[Label]map[sim.PID]bool)
	for p := 0; p < n; p++ {
		for _, s := range pr.History(sim.PID(p)) {
			seen := make(map[Label]bool, len(s.Value))
			for _, pair := range s.Value {
				if seen[pair.Label] {
					return Result{}, fmt.Errorf("AΣ validity: process %d at t=%d holds two pairs with label %q", p, s.Time, pair.Label)
				}
				seen[pair.Label] = true
				if member[pair.Label] == nil {
					member[pair.Label] = make(map[sim.PID]bool)
				}
				member[pair.Label][sim.PID(p)] = true
			}
		}
		// Monotonicity: (x, y) must persist as (x, y') with y' ≤ y.
		hist := pr.History(sim.PID(p))
		for i := 1; i < len(hist); i++ {
			for _, old := range hist[i-1].Value {
				ok := false
				for _, nw := range hist[i].Value {
					if nw.Label == old.Label && nw.Y <= old.Y {
						ok = true
						break
					}
				}
				if !ok {
					return Result{}, fmt.Errorf("AΣ monotonicity: process %d pair (%q, %d) not preserved at t=%d", p, old.Label, old.Y, hist[i].Time)
				}
			}
		}
	}

	correctSet := make(map[sim.PID]bool)
	for _, p := range g.Correct() {
		correctSet[p] = true
	}
	for _, p := range g.Correct() {
		final, ok := pr.Last(p)
		if !ok {
			return Result{}, fmt.Errorf("AΣ liveness: correct process %d produced no output", p)
		}
		live := false
		for _, pair := range final {
			inter := 0
			for q := range member[pair.Label] {
				if correctSet[q] {
					inter++
				}
			}
			if inter >= pair.Y {
				live = true
				break
			}
		}
		if !live {
			return Result{}, fmt.Errorf("AΣ liveness: process %d has no final pair (x, y) with |S_A(x) ∩ Correct| ≥ y", p)
		}
	}

	// Safety.
	type obs struct {
		label Label
		y     int
	}
	seen := make(map[obs]bool)
	var all []obs
	for p := 0; p < n; p++ {
		for _, s := range pr.History(sim.PID(p)) {
			for _, pair := range s.Value {
				o := obs{pair.Label, pair.Y}
				if !seen[o] {
					seen[o] = true
					all = append(all, o)
				}
			}
		}
	}
	sizeOf := func(x Label) int { return len(member[x]) }
	unionOf := func(x1, x2 Label) int {
		u := make(map[sim.PID]bool)
		for p := range member[x1] {
			u[p] = true
		}
		for p := range member[x2] {
			u[p] = true
		}
		return len(u)
	}
	for i := 0; i < len(all); i++ {
		for j := i; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.y <= sizeOf(a.label) && b.y <= sizeOf(b.label) && a.y+b.y <= unionOf(a.label, b.label) {
				return Result{}, fmt.Errorf("AΣ safety: pairs (%q, %d) and (%q, %d) admit disjoint quora", a.label, a.y, b.label, b.y)
			}
		}
	}
	return Result{StabilizationTime: stabilization(g, pr)}, nil
}
